/**
 * @file
 * Conformance tests for the conservative parallel-DES executive: the
 * paper experiments must produce bit-identical results at every
 * HOWSIM_PDES setting, fault-free and under fault injection;
 * synthetic multi-partition workloads (spawnOn/postCross) must be
 * deterministic across repeated runs and across partition counts;
 * and the executive's safety rails (lookahead violations,
 * out-of-range partitions) must trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/partition.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"
#include "workload/task_kind.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using sim::Coro;
using sim::Simulator;
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

    bool
    operator==(const Fingerprint &o) const
    {
        return elapsed == o.elapsed
               && interconnectBytes == o.interconnectBytes
               && outputBytes == o.outputBytes && buckets == o.buckets;
    }
};

Fingerprint
runOnce(const ExperimentConfig &base, int pdes)
{
    ExperimentConfig config = base;
    config.pdes = pdes;
    tasks::TaskResult r = core::runExperiment(config);
    Fingerprint fp;
    fp.elapsed = r.elapsedTicks;
    fp.interconnectBytes = r.interconnectBytes;
    fp.outputBytes = r.outputBytes;
    for (const auto &[name, value] : r.buckets.all())
        fp.buckets.emplace_back(name, value);
    return fp;
}

/** Serial (pdes=1) vs parallel (pdes=2,4) on one configuration. */
void
expectPdesInvariant(const ExperimentConfig &config,
                    const std::string &label)
{
    Fingerprint serial = runOnce(config, 1);
    ASSERT_GT(serial.elapsed, 0u) << label;
    for (int pdes : {2, 4}) {
        if (pdes > config.scale)
            continue;
        Fingerprint parallel = runOnce(config, pdes);
        EXPECT_TRUE(serial == parallel)
            << label << ": pdes=" << pdes
            << " diverged from serial (elapsed " << parallel.elapsed
            << " vs " << serial.elapsed << ")";
    }
}

TEST(PdesConformance, SortBreakdownAgreesAcrossPartitions)
{
    // Figure 3's headline configuration: external sort on the Active
    // Disk array at the smallest figure scale.
    ExperimentConfig config;
    config.arch = Arch::ActiveDisk;
    config.task = workload::TaskKind::Sort;
    config.scale = 16;
    expectPdesInvariant(config, "sort");
}

TEST(PdesConformance, AllArchitecturesAgree)
{
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        ExperimentConfig config;
        config.arch = arch;
        config.task = workload::TaskKind::Select;
        config.scale = 8;
        expectPdesInvariant(config,
                            "select on " + core::archName(arch));
    }
}

TEST(PdesConformance, FaultedPlanStaysBitIdentical)
{
    // Degraded-mode recovery paths (media retries, remaps, a
    // fail-stop victim) must not observe the partition count either.
    ExperimentConfig config;
    config.arch = Arch::ActiveDisk;
    config.task = workload::TaskKind::Select;
    config.scale = 8;
    config.faults = "seed=42,disk.media.rate=2e-4,disk.remap.rate=1e-4,"
                    "stop.disk=3,stop.at.ms=5";
    expectPdesInvariant(config, "faulted select");
}

TEST(PdesConformance, ExplicitOverPartitioningIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ExperimentConfig config;
    config.scale = 2;
    config.pdes = 4;
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "exceed scale");
}

/**
 * Synthetic multi-partition workload: @p pingers processes per
 * partition, each posting cross-partition events one lookahead ahead
 * of its own clock. Returns the merged (tick, tag) record of every
 * delivered event, sorted into a canonical order.
 */
using Trace = std::vector<std::pair<Tick, int>>;

Trace
runPingWorkload(int nparts, int pingers, int hops)
{
    constexpr Tick lookahead = 1000;
    Simulator simulator(nparts);
    simulator.setLookahead(lookahead);
    // One vector per partition: only that partition's thread appends,
    // so no synchronization is needed.
    std::vector<Trace> perPart(static_cast<std::size_t>(nparts));
    auto pinger = [&](int home, int id) -> Coro<void> {
        for (int hop = 0; hop < hops; ++hop) {
            co_await sim::delay(100 + static_cast<Tick>(id % 7));
            Simulator &s = *Simulator::current();
            int target = (home + 1) % nparts;
            int tag = id * 1000 + hop;
            s.postCross(target, s.now() + lookahead,
                        [&perPart, target, tag] {
                            Simulator &t = *Simulator::current();
                            perPart[static_cast<std::size_t>(target)]
                                .emplace_back(t.now(), tag);
                        });
        }
    };
    std::vector<sim::ProcessRef> procs;
    for (int p = 0; p < nparts; ++p) {
        for (int i = 0; i < pingers; ++i) {
            int id = p * pingers + i;
            procs.push_back(simulator.spawnOn(
                p, pinger(p, id), "pinger"));
        }
    }
    simulator.run();
    Trace merged;
    for (const Trace &t : perPart)
        merged.insert(merged.end(), t.begin(), t.end());
    std::sort(merged.begin(), merged.end());
    return merged;
}

TEST(PdesConformance, SyntheticWorkloadIsDeterministic)
{
    // Thread scheduling must not leak into results: repeated parallel
    // runs deliver the exact same event record.
    Trace first = runPingWorkload(2, 4, 8);
    EXPECT_FALSE(first.empty());
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(runPingWorkload(2, 4, 8), first);
}

TEST(PdesConformance, SyntheticWorkloadInvariantAcrossPartitionCounts)
{
    // The delivered (tick, tag) set depends only on the logical
    // workload, not on how it is partitioned. With 4 logical homes
    // the same process/target structure can run on 1, 2 or 4
    // partitions... except targets are (home + 1) % nparts, so keep
    // nparts fixed at the workload level and vary only the physical
    // partition count via modulo homing instead.
    constexpr Tick lookahead = 1000;
    auto runHomed = [&](int physParts) {
        constexpr int logicalHomes = 4;
        Simulator simulator(physParts);
        simulator.setLookahead(lookahead);
        std::vector<Trace> perPart(
            static_cast<std::size_t>(physParts));
        auto pinger = [&, physParts](int logical, int id) -> Coro<void> {
            for (int hop = 0; hop < 6; ++hop) {
                co_await sim::delay(200 + static_cast<Tick>(id % 5));
                Simulator &s = *Simulator::current();
                int target = ((logical + 1) % logicalHomes) % physParts;
                int tag = id * 1000 + hop;
                s.postCross(target, s.now() + lookahead,
                            [&perPart, target, tag] {
                                Simulator &t = *Simulator::current();
                                perPart[static_cast<std::size_t>(
                                            target)]
                                    .emplace_back(t.now(), tag);
                            });
            }
        };
        std::vector<sim::ProcessRef> procs;
        for (int logical = 0; logical < logicalHomes; ++logical) {
            procs.push_back(simulator.spawnOn(
                logical % physParts, pinger(logical, logical),
                "pinger"));
        }
        simulator.run();
        Trace merged;
        for (const Trace &t : perPart)
            merged.insert(merged.end(), t.begin(), t.end());
        std::sort(merged.begin(), merged.end());
        return merged;
    };
    Trace serial = runHomed(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(runHomed(2), serial);
    EXPECT_EQ(runHomed(4), serial);
}

TEST(PdesConformance, StatsCountWindowsAndMailboxTraffic)
{
    Simulator simulator(2);
    simulator.setLookahead(500);
    std::vector<int> delivered; // touched only by partition 0
    auto sender = [&]() -> Coro<void> {
        for (int i = 0; i < 10; ++i) {
            co_await sim::delay(300);
            Simulator &s = *Simulator::current();
            s.postCross(0, s.now() + 500,
                        [&delivered, i] { delivered.push_back(i); });
        }
    };
    auto p = simulator.spawnOn(1, sender(), "sender");
    simulator.run();
    EXPECT_EQ(delivered.size(), 10u);
    sim::PdesStats stats = simulator.pdesStats();
    EXPECT_EQ(stats.partitions, 2);
    EXPECT_EQ(stats.mailboxEvents, 10u);
    EXPECT_GE(stats.windows, 2u);
    ASSERT_EQ(stats.executedPerPartition.size(), 2u);
    std::uint64_t executed = stats.executedPerPartition[0]
                             + stats.executedPerPartition[1];
    EXPECT_GT(executed, 0u);
    EXPECT_GE(stats.stallFraction(), 0.0);
    EXPECT_LE(stats.stallFraction(), 1.0);
}

TEST(PdesConformanceDeathTest, LookaheadViolationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto violate = [] {
        Simulator simulator(2);
        simulator.setLookahead(10);
        auto body = []() -> Coro<void> {
            co_await sim::delay(3);
            Simulator &s = *Simulator::current();
            // Due inside the current window [0, 9]: the conservative
            // guarantee is broken and the boundary must panic rather
            // than silently reorder.
            s.postCross(0, s.now() + 1, [] {});
        };
        auto p = simulator.spawnOn(1, body(), "violator");
        simulator.run();
    };
    EXPECT_DEATH(violate(), "lookahead violation");
}

TEST(PdesConformanceDeathTest, OutOfRangePartitionsPanic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto badSpawn = [] {
        Simulator simulator(2);
        auto body = []() -> Coro<void> { co_return; };
        auto p = simulator.spawnOn(5, body(), "lost");
    };
    EXPECT_DEATH(badSpawn(), "partition");
    auto badPost = [] {
        Simulator simulator(2);
        simulator.postCross(7, 100, [] {});
    };
    EXPECT_DEATH(badPost(), "partition");
}

} // namespace
