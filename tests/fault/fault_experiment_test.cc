/**
 * @file End-to-end fault injection through core::runExperiment: the
 * cross-policy agreement, reproducibility, and graceful-degradation
 * guarantees from docs/faults.md, checked on real machines at small
 * scale.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "sim/ticks.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using workload::TaskKind;

namespace
{

ExperimentConfig
baseConfig(Arch arch, TaskKind task, int scale)
{
    ExperimentConfig config;
    config.arch = arch;
    config.task = task;
    config.scale = scale;
    return config;
}

/** Fault spec that fail-stops disk 1 a fraction into the given run. */
std::string
stopSpec(const tasks::TaskResult &faultFree, double fraction)
{
    double ms = sim::toSeconds(faultFree.elapsedTicks) * 1e3 * fraction;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "seed=42,stop.disk=1,stop.at.ms=%.6f", ms);
    return buf;
}

} // namespace

TEST(FaultExperiment, InactivePlanMatchesFaultFreeRunExactly)
{
    // "seed=1" parses but enables no fault class; the injector is
    // never installed and the run must be bit-identical to one with
    // no spec at all, on every architecture.
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        auto plain = baseConfig(arch, TaskKind::Select, 2);
        auto seeded = plain;
        seeded.faults = "seed=1";
        auto a = core::runExperiment(plain);
        auto b = core::runExperiment(seeded);
        EXPECT_EQ(a.elapsedTicks, b.elapsedTicks);
        EXPECT_EQ(a.outputBytes, b.outputBytes);
        EXPECT_EQ(a.interconnectBytes, b.interconnectBytes);
    }
}

TEST(FaultExperiment, DiskFaultsSlowTheRunButPreserveOutput)
{
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        auto config = baseConfig(arch, TaskKind::Select, 4);
        auto faultFree = core::runExperiment(config);
        config.faults = "seed=42,disk.slow.frac=0.5,disk.slow.factor=2,"
                        "disk.media.rate=2e-3,disk.remap.rate=1e-3";
        auto degraded = core::runExperiment(config);
        EXPECT_GT(degraded.elapsedTicks, faultFree.elapsedTicks)
            << core::archName(arch);
        EXPECT_EQ(degraded.outputBytes, faultFree.outputBytes)
            << core::archName(arch);
    }
}

TEST(FaultExperiment, NetFaultsAgreeAcrossJobs)
{
    // Retransmit decisions hash (seed, link, message, attempt), so a
    // faulted run must produce one simulated timeline on a repeat run
    // and at every worker-thread count.
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster}) {
        auto config = baseConfig(arch, TaskKind::Select, 4);
        auto faultFree = core::runExperiment(config);
        config.faults = "seed=7,net.drop.rate=0.3,net.corrupt.rate=0.1";

        std::vector<ExperimentConfig> batch(4, config);
        std::vector<tasks::TaskResult> results
            = core::runExperiments(batch, 1);
        for (const tasks::TaskResult &r : core::runExperiments(batch, 4))
            results.push_back(r);
        for (std::size_t i = 1; i < results.size(); ++i) {
            EXPECT_EQ(results[i].elapsedTicks, results[0].elapsedTicks)
                << core::archName(arch) << " run " << i;
            EXPECT_EQ(results[i].outputBytes, results[0].outputBytes);
        }
        // Retransmits and backoffs only ever add time, and at these
        // rates the seed deterministically produces some.
        EXPECT_GT(results[0].elapsedTicks, faultFree.elapsedTicks)
            << core::archName(arch);
        EXPECT_EQ(results[0].outputBytes, faultFree.outputBytes);
    }
}

TEST(FaultExperiment, FailStopCompletesWithFaultFreeOutput)
{
    // Kill disk 1 a third of the way through the scan: the run must
    // still complete and deliver exactly the fault-free bytes, just
    // later.
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        auto config = baseConfig(arch, TaskKind::Select, 4);
        auto faultFree = core::runExperiment(config);
        config.faults = stopSpec(faultFree, 0.33);
        auto degraded = core::runExperiment(config);
        EXPECT_EQ(degraded.outputBytes, faultFree.outputBytes)
            << core::archName(arch);
        EXPECT_GT(degraded.elapsedTicks, faultFree.elapsedTicks)
            << core::archName(arch);
    }
}

TEST(FaultExperiment, FailStopWorksForEveryScanTask)
{
    for (TaskKind task : {TaskKind::Aggregate, TaskKind::GroupBy}) {
        auto config = baseConfig(Arch::ActiveDisk, task, 4);
        auto faultFree = core::runExperiment(config);
        config.faults = stopSpec(faultFree, 0.33);
        auto degraded = core::runExperiment(config);
        EXPECT_EQ(degraded.outputBytes, faultFree.outputBytes)
            << workload::taskName(task);
        EXPECT_GT(degraded.elapsedTicks, faultFree.elapsedTicks)
            << workload::taskName(task);
    }
}

TEST(FaultExperiment, SeededFaultRunsAreReproducible)
{
    auto config = baseConfig(Arch::ActiveDisk, TaskKind::Select, 4);
    config.faults = "seed=42,disk.media.rate=2e-3,net.drop.rate=0.1";
    auto a = core::runExperiment(config);
    auto b = core::runExperiment(config);
    EXPECT_EQ(a.elapsedTicks, b.elapsedTicks);
    EXPECT_EQ(a.outputBytes, b.outputBytes);
    EXPECT_EQ(a.interconnectBytes, b.interconnectBytes);
}

TEST(FaultExperiment, ParallelBatchMatchesSerialUnderFaults)
{
    // Injection decisions are pure functions of (seed, site, seq), so
    // running faulted experiments on four worker threads must give
    // the same timelines as running them one at a time.
    std::vector<ExperimentConfig> configs;
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        for (int scale : {2, 4}) {
            auto config = baseConfig(arch, TaskKind::Select, scale);
            config.faults = "seed=9,disk.slow.frac=0.5,"
                            "disk.slow.factor=2,disk.media.rate=2e-3";
            configs.push_back(config);
        }
    }
    auto serial = core::runExperiments(configs, 1);
    auto parallel = core::runExperiments(configs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].elapsedTicks, parallel[i].elapsedTicks)
            << "config " << i;
        EXPECT_EQ(serial[i].outputBytes, parallel[i].outputBytes);
    }
}

TEST(FaultExperiment, FaultCountersReachTheMetricsJson)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "howsim_fault_metrics";
    fs::remove_all(dir);
    setenv("HOWSIM_METRICS", dir.c_str(), 1);

    auto config = baseConfig(Arch::ActiveDisk, TaskKind::Select, 4);
    config.faults = "seed=7,disk.media.rate=2e-3,net.drop.rate=0.3,"
                    "net.corrupt.rate=0.1";
    core::runExperiment(config);
    unsetenv("HOWSIM_METRICS");

    std::string json;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().string().ends_with(".metrics.json")) {
            std::ifstream in(entry.path());
            std::stringstream ss;
            ss << in.rdbuf();
            json = ss.str();
            break;
        }
    }
    ASSERT_FALSE(json.empty()) << "no metrics file written in " << dir;
    EXPECT_NE(json.find("fault.disk.media_errors"), std::string::npos);
    EXPECT_NE(json.find("fault.disk.retries"), std::string::npos);
    EXPECT_NE(json.find("fault.net.drops"), std::string::npos);
    EXPECT_NE(json.find("fault.net.retransmits"), std::string::npos);
    EXPECT_NE(json.find("fault.stop.deaths"), std::string::npos);
    fs::remove_all(dir);
}
