#include "arch/cluster_machine.hh"

#include <string>

#include "fault/detector.hh"
#include "sim/awaitables.hh"
#include "sim/logging.hh"

namespace howsim::arch
{

namespace
{

/** Message tag of the rebuild band: above every traffic stream's. */
constexpr int kRebuildTag = fault::kRebuildStream
                            * net::kStreamTagStride;

} // namespace

ClusterMachine::ClusterMachine(sim::Simulator &s, int nnodes,
                               const disk::DiskSpec &spec,
                               ClusterParams params)
    : simulator(s), clusterParams(params)
{
    if (nnodes <= 0)
        panic("ClusterMachine: nnodes must be positive");
    nodes.resize(static_cast<std::size_t>(nnodes));
    for (int i = 0; i < nnodes; ++i) {
        auto &node = nodes[static_cast<std::size_t>(i)];
        node.drive = std::make_unique<disk::Disk>(
            s, spec, disk::SchedPolicy::Fcfs,
            "node" + std::to_string(i));
        node.pci = std::make_unique<bus::Bus>(s,
                                              clusterParams.nodeBus);
        node.raw = std::make_unique<os::RawDisk>(
            *node.drive, node.pci.get(), clusterParams.costs);
        node.cpu = std::make_unique<os::Cpu>(
            clusterParams.cpuMhz, os::referenceCpuMhz,
            clusterParams.costs.contextSwitch);
    }
    feCpu = std::make_unique<os::Cpu>(
        clusterParams.frontendCpuMhz, os::referenceCpuMhz,
        clusterParams.costs.contextSwitch);
    // Workers plus the front-end hang off the fabric.
    fabric = std::make_unique<net::Network>(s, nnodes + 1,
                                            clusterParams.net);
    msgLayer = std::make_unique<net::MsgLayer>(s, *fabric);
    syncBarrier = std::make_unique<net::Barrier>(
        s, nnodes,
        net::Barrier::logCost(nnodes,
                              2 * clusterParams.net.hopLatency
                                  + sim::microseconds(30)));
    if (fault::Injector *inj = fault::current()) {
        if (inj->plan().stopConfigured()) {
            stopInj = inj;
            stopSched
                = fault::StopSchedule::resolve(inj->plan(), nnodes);
        }
    }
}

os::Cpu &
ClusterMachine::cpu(int node)
{
    // A dead node's share of the query runs on its takeover peer's
    // CPU. Compute never stalls on the lease — the process was
    // already migrated by whichever redirected I/O preceded it.
    if (!stopSched.empty()
        && !stopSched.aliveAt(node, simulator.now()))
        node = stopSched.buddyOf(node, size());
    return *nodes[static_cast<std::size_t>(node)].cpu;
}

disk::Disk &
ClusterMachine::driveMech(int node)
{
    return *nodes[static_cast<std::size_t>(node)].drive;
}

std::uint64_t
ClusterMachine::driveCapacity() const
{
    return nodes.front().drive->capacityBytes();
}

sim::Coro<int>
ClusterMachine::route(int node)
{
    const fault::StopSchedule::Victim *v = stopSched.victimOf(node);
    if (v == nullptr || stopSched.aliveAt(node, simulator.now()))
        co_return node;
    sim::Tick ready = v->stopAt + stopSched.lease;
    if (v->rejoins() && v->restartAt < ready)
        ready = v->restartAt;
    if (simulator.now() < ready)
        co_await sim::delay(ready - simulator.now());
    if (stopSched.aliveAt(node, simulator.now()))
        co_return node;
    ++stopInj->counters().stopRedirects;
    co_return stopSched.buddyOf(node, size());
}

sim::Coro<os::IoResult>
ClusterMachine::read(int node, std::uint64_t offset, std::uint64_t bytes)
{
    if (!stopSched.empty())
        node = co_await route(node);
    co_return co_await nodes[static_cast<std::size_t>(node)]
        .raw->read(offset, bytes);
}

sim::Coro<os::IoResult>
ClusterMachine::write(int node, std::uint64_t offset,
                      std::uint64_t bytes)
{
    if (!stopSched.empty())
        node = co_await route(node);
    co_return co_await nodes[static_cast<std::size_t>(node)]
        .raw->write(offset, bytes);
}

sim::Coro<bool>
ClusterMachine::heartbeat(int node)
{
    // Probe and ack are real fabric frames: they queue behind
    // foreground stage transfers, so the measured detection latency
    // grows with network load.
    co_await fabric->transport(frontendId(), node,
                               static_cast<std::uint64_t>(
                                   fault::kHeartbeatBytes));
    if (!stopSched.aliveAt(node, simulator.now()))
        co_return false;
    co_await sim::delay(clusterParams.costs.interrupt);
    co_await fabric->transport(node, frontendId(),
                               static_cast<std::uint64_t>(
                                   fault::kHeartbeatBytes));
    co_return true;
}

sim::Coro<void>
ClusterMachine::rebuildChunk(int victim, std::uint64_t offset,
                             std::uint64_t bytes)
{
    int peer = stopSched.buddyOf(victim, size());
    co_await read(peer, offset, bytes);
    net::Message m;
    m.tag = kRebuildTag;
    m.bytes = bytes;
    co_await msgLayer->send(peer, victim, std::move(m));
    co_await msgLayer->recv(victim, kRebuildTag);
    co_await write(victim, offset, bytes);
}

sim::Coro<void>
ClusterMachine::barrier(int node, int stream)
{
    if (stream == 0) {
        co_await syncBarrier->arrive(node);
        co_return;
    }
    auto it = streamBarriers.find(stream);
    if (it == streamBarriers.end()) {
        it = streamBarriers
                 .emplace(stream,
                          std::make_unique<net::Barrier>(
                              simulator, size(),
                              net::Barrier::logCost(
                                  size(),
                                  2 * clusterParams.net.hopLatency
                                      + sim::microseconds(30))))
                 .first;
    }
    co_await it->second->arrive();
}

void
ClusterMachine::retireStream(int stream)
{
    if (stream <= 0) {
        panic("ClusterMachine::retireStream: stream %d is not a "
              "traffic stream",
              stream);
    }
    streamBarriers.erase(stream);
    msgLayer->retireTagRange(stream * net::kStreamTagStride,
                             (stream + 1) * net::kStreamTagStride);
}

void
ClusterMachine::useKeyedHandshakes()
{
    msgLayer->setTopology(crossLatency());
    // A single node keeps the legacy barrier: with one participant
    // the keyed round trip adds nothing (and logCost(1) leaves no
    // release margin for the arrival edge).
    if (size() > 1)
        syncBarrier->setTopology(crossLatency());
}

} // namespace howsim::arch
