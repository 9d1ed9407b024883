/**
 * @file
 * Worker-thread conformance of the paper experiments: a batch run
 * through core::runExperiments must be bit-identical at jobs=1 and
 * jobs=4, fault-free and under fault injection. Every batch lists each
 * configuration twice, so the serial pass doubles as a repeat run and
 * the parallel pass runs copies of one experiment on different worker
 * threads at the same time.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "sim/ticks.hh"
#include "workload/task_kind.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using sim::Tick;

namespace
{

/**
 * Everything a run can disagree on, flattened for exact comparison.
 * Doubles are compared with operator== on purpose: the claim under
 * test is bit-identity, not approximate agreement.
 */
struct Fingerprint
{
    Tick elapsed;
    std::uint64_t interconnectBytes;
    std::uint64_t outputBytes;
    std::vector<std::pair<std::string, double>> buckets;

    bool operator==(const Fingerprint &) const = default;
};

/** Run every config in @p configs twice, on @p jobs worker threads. */
std::vector<Fingerprint>
runBatch(const std::vector<ExperimentConfig> &configs, int jobs)
{
    std::vector<ExperimentConfig> batch = configs;
    batch.insert(batch.end(), configs.begin(), configs.end());
    std::vector<Fingerprint> out;
    for (const tasks::TaskResult &r : core::runExperiments(batch, jobs)) {
        Fingerprint fp{r.elapsedTicks, r.interconnectBytes,
                       r.outputBytes, {}};
        for (const auto &[name, value] : r.buckets.all())
            fp.buckets.emplace_back(name, value);
        out.push_back(std::move(fp));
    }
    return out;
}

/** jobs=1 (with its built-in repeat) vs jobs=4 on @p configs. */
void
expectJobsInvariant(const std::vector<ExperimentConfig> &configs,
                    const std::string &label)
{
    const std::size_t n = configs.size();
    std::vector<Fingerprint> serial = runBatch(configs, 1);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_GT(serial[i].elapsed, 0u) << label << " #" << i;
        EXPECT_TRUE(serial[n + i] == serial[i])
            << label << " #" << i << ": repeat run diverged";
    }
    std::vector<Fingerprint> parallel = runBatch(configs, 4);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(parallel[i] == serial[i])
            << label << " #" << i << ": jobs=4 diverged from jobs=1 "
            << "(elapsed " << parallel[i].elapsed << " vs "
            << serial[i].elapsed << ")";
    }
}

ExperimentConfig
configFor(Arch arch, workload::TaskKind task, int scale)
{
    ExperimentConfig config;
    config.arch = arch;
    config.task = task;
    config.scale = scale;
    return config;
}

} // namespace

TEST(JobsConformance, SortBreakdownAgreesAcrossJobs)
{
    // Figure 3's headline configuration: external sort on the Active
    // Disk array at the smallest figure scale, every phase bucket.
    expectJobsInvariant(
        {configFor(Arch::ActiveDisk, workload::TaskKind::Sort, 16)},
        "sort");
}

TEST(JobsConformance, AllArchitecturesAgree)
{
    std::vector<ExperimentConfig> configs;
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp})
        configs.push_back(
            configFor(arch, workload::TaskKind::Select, 8));
    expectJobsInvariant(configs, "select");
}

TEST(JobsConformance, FaultedPlanStaysBitIdentical)
{
    // Degraded-mode recovery paths (media retries, remaps, a
    // fail-stop victim) must not observe the worker thread either.
    ExperimentConfig config
        = configFor(Arch::ActiveDisk, workload::TaskKind::Select, 8);
    config.faults = "seed=42,disk.media.rate=2e-4,disk.remap.rate=1e-4,"
                    "stop.disk=3,stop.at.ms=5";
    expectJobsInvariant({config}, "faulted select");
}

TEST(JobsConformance, Fig2SliceBitIdenticalAcrossJobs)
{
    // A small figure-2 slice (doubled interconnect, group-by) on all
    // three architectures: the keyed barrier, send and split-I/O
    // handshakes all run, and every bucket must agree.
    std::vector<ExperimentConfig> configs;
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        ExperimentConfig config
            = configFor(arch, workload::TaskKind::GroupBy, 8);
        config.interconnectRate = 400e6;
        configs.push_back(config);
    }
    expectJobsInvariant(configs, "fig2 group-by");
}
