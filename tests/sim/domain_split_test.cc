/**
 * @file
 * Tests for the per-device partition domains declared by the three
 * machine models (DESIGN.md §14): the planned lookahead must pin to
 * the machine's cut-edge latency, every machine must declare enough
 * domains to fan out, the mailbox must merge simultaneous
 * cross-partition sends in the documented (tick, seq, srcPart)
 * order, and a figure-2 slice must stay bit-identical from serial
 * through HOWSIM_PDES=8 on all three architectures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/cluster_machine.hh"
#include "core/experiment.hh"
#include "diskos/active_disk_array.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/partition.hh"
#include "sim/simulator.hh"
#include "smp/smp_machine.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using sim::Coro;
using sim::PartitionGraph;
using sim::Simulator;
using sim::Tick;

namespace
{

/** Component id of @p name in @p graph, or -1. */
int
findComp(const PartitionGraph &graph, const std::string &name)
{
    for (std::size_t c = 0; c < graph.componentCount(); ++c) {
        if (graph.componentName(static_cast<int>(c)) == name)
            return static_cast<int>(c);
    }
    return -1;
}

} // namespace

TEST(DomainSplit, SmpLookaheadPinsToSplitHandshake)
{
    Simulator simulator;
    smp::SmpMachine machine(simulator, 4, 4,
                            disk::DiskSpec::seagateSt39102());
    PartitionGraph graph;
    machine.describePartitions(graph);
    // Host domain + one domain per farm drive.
    auto plan = graph.plan(2);
    EXPECT_EQ(plan.groups, 1 + machine.diskCount());
    EXPECT_GE(plan.groups, 3);
    // The only cut edges are RawDisk's split handshake: the smaller
    // of the issue flight (+ioQueue) and the completion flight (the
    // FC grant latency).
    Tick expected = std::min(machine.params().costs.ioQueue,
                             machine.fcBus().minGrantLatency());
    ASSERT_GT(expected, 0u);
    for (int nparts : {2, 4, 8})
        EXPECT_EQ(graph.plan(nparts).lookahead, expected)
            << "nparts=" << nparts;
    // The host domain (fc, xio, boards) stays on partition 0, where
    // the obs session and fault injector live.
    EXPECT_EQ(plan.partitionOf[static_cast<std::size_t>(
                  findComp(graph, "smp.fc"))],
              0);
    EXPECT_EQ(plan.partitionOf[static_cast<std::size_t>(
                  findComp(graph, "smp.xio"))],
              0);
}

TEST(DomainSplit, ActiveDiskLookaheadPinsToLoopGrant)
{
    Simulator simulator;
    diskos::ActiveDiskArray arr(simulator, 4,
                                disk::DiskSpec::seagateSt39102(),
                                diskos::AdParams{});
    PartitionGraph graph;
    arr.describePartitions(graph);
    auto plan = graph.plan(2);
    EXPECT_GE(plan.groups, 3);
    // Every drive/loop cut edge is one keyed hop of the send
    // protocol: the loop's minimum grant latency.
    ASSERT_GT(arr.crossLatency(), 0u);
    for (int nparts : {2, 4, 8})
        EXPECT_EQ(graph.plan(nparts).lookahead, arr.crossLatency())
            << "nparts=" << nparts;
}

TEST(DomainSplit, ClusterLookaheadPinsToFabricHop)
{
    Simulator simulator;
    arch::ClusterMachine machine(simulator, 4,
                                 disk::DiskSpec::seagateSt39102());
    PartitionGraph graph;
    machine.describePartitions(graph);
    auto plan = graph.plan(2);
    EXPECT_GE(plan.groups, 3);
    // The node/fabric cut edges carry one switch hop.
    EXPECT_EQ(machine.crossLatency(),
              machine.params().net.hopLatency);
    ASSERT_GT(machine.crossLatency(), 0u);
    for (int nparts : {2, 4, 8})
        EXPECT_EQ(graph.plan(nparts).lookahead,
                  machine.crossLatency())
            << "nparts=" << nparts;
    // Fabric and front-end co-locate on partition 0 (link sequence
    // counters, stage buses and the obs session live there).
    EXPECT_EQ(plan.partitionOf[static_cast<std::size_t>(
                  findComp(graph, "cluster.fabric"))],
              0);
    EXPECT_EQ(plan.partitionOf[static_cast<std::size_t>(
                  findComp(graph, "cluster.frontend"))],
              0);
}

TEST(DomainSplit, MailboxMergesSimultaneousSendsDeterministically)
{
    // Two source partitions post to partition 0 at the *same* target
    // tick. The documented merge order is (tick, seq, srcPart) with
    // seq a per-source counter, so the deliveries interleave
    // src1/src2 by sequence number — and identically on every run.
    constexpr Tick lookahead = 1000;
    auto runOnce = [&] {
        Simulator simulator(3);
        simulator.setLookahead(lookahead);
        std::vector<int> order; // touched only by partition 0
        auto sender = [&](int src) -> Coro<void> {
            co_await sim::delay(100);
            Simulator &s = *Simulator::current();
            for (int i = 0; i < 3; ++i) {
                int tag = src * 10 + i;
                s.postCross(0, s.now() + lookahead,
                            [&order, tag] { order.push_back(tag); });
            }
        };
        auto p1 = simulator.spawnOn(1, sender(1), "src1");
        auto p2 = simulator.spawnOn(2, sender(2), "src2");
        simulator.run();
        return order;
    };
    std::vector<int> expected{10, 20, 11, 21, 12, 22};
    EXPECT_EQ(runOnce(), expected);
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(runOnce(), expected);
}

TEST(DomainSplit, Fig2SliceBitIdenticalThroughEightPartitions)
{
    // A small figure-2 slice (doubled interconnect, group-by) on all
    // three architectures: serial and HOWSIM_PDES=2/4/8 must agree
    // exactly — elapsed ticks, interconnect bytes and every
    // floating-point bucket.
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        ExperimentConfig config;
        config.arch = arch;
        config.task = workload::TaskKind::GroupBy;
        config.scale = 8;
        config.interconnectRate = 400e6;

        auto fingerprint = [&](int pdes) {
            ExperimentConfig c = config;
            c.pdes = pdes;
            tasks::TaskResult r = core::runExperiment(c);
            std::vector<std::pair<std::string, double>> buckets;
            for (const auto &[name, value] : r.buckets.all())
                buckets.emplace_back(name, value);
            return std::make_tuple(r.elapsedTicks,
                                   r.interconnectBytes,
                                   r.outputBytes, std::move(buckets));
        };

        auto serial = fingerprint(1);
        ASSERT_GT(std::get<0>(serial), 0u);
        for (int pdes : {2, 4, 8}) {
            EXPECT_EQ(fingerprint(pdes), serial)
                << core::archName(arch) << " pdes=" << pdes;
        }
    }
}
