/**
 * @file
 * Test oracle for the interconnect models: the coroutine transfer
 * engine.
 *
 * bus::Bus and net::Network run on a calendar engine that books the
 * FIFO channel schedule arithmetically and, for an uncontended frame
 * train, collapses the whole message into a closed-form pipeline.
 * This header keeps the plain model that engine must reproduce event
 * for event (DESIGN.md §12):
 *
 *  - CoroBus: one coroutine per transfer that acquires a channel of
 *    a sim::Resource, delays for startup + bytes/rate, releases, and
 *    then applies its statistics.
 *  - CoroNetwork: the same fabric as net::Network (sender NIC ->
 *    uplink -> downlink -> receiver NIC, hop latency between stages)
 *    where the sender books each frame on its NIC and spawns a
 *    detached forwarder coroutine per frame for the remaining hops.
 *
 * Completion ticks, completion order and the bus statistics must be
 * identical between an oracle and the engine it checks
 * (tests/bus/bus_parity_test.cc, tests/net/net_conformance_test.cc);
 * bench/micro_net.cc measures the host-time difference.
 */

#ifndef HOWSIM_TESTS_ORACLE_CORO_BUS_HH
#define HOWSIM_TESTS_ORACLE_CORO_BUS_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bus/bus.hh"
#include "net/network.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/logging.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

namespace howsim::oracle
{

/** Resource-backed bus: one coroutine per transfer. */
class CoroBus
{
  public:
    CoroBus(sim::Simulator &, bus::BusParams params)
        : busParams(validated(params)), slots(busParams.channels)
    {
    }

    /** Wait for a free channel, then occupy it for the transfer. */
    sim::Coro<void>
    transfer(std::uint64_t bytes)
    {
        co_await slots.acquire(1);
        sim::Tick occupancy =
            busParams.startup
            + sim::transferTicks(bytes, busParams.channelRate);
        co_await sim::delay(occupancy);
        slots.release(1);
        ++accumulated.transfers;
        accumulated.bytes += bytes;
        accumulated.busyTicks += occupancy;
    }

    const bus::BusStats &stats() const { return accumulated; }
    std::size_t queueLength() const { return slots.queueLength(); }
    sim::Tick totalWait() const { return slots.totalWait(); }

    double
    utilization(sim::Tick elapsed) const
    {
        return slots.utilization(elapsed);
    }

  private:
    static const bus::BusParams &
    validated(const bus::BusParams &params)
    {
        if (params.channels <= 0 || params.channelRate <= 0)
            panic("CoroBus '%s': channels and channelRate must be "
                  "positive",
                  params.name.c_str());
        return params;
    }

    bus::BusParams busParams;
    sim::Resource slots;
    bus::BusStats accumulated;
};

/** net::Network's fabric with a coroutine per frame. */
class CoroNetwork
{
  public:
    CoroNetwork(sim::Simulator &s, int host_count,
                net::NetParams params = {})
        : simulator(s), netParams(params)
    {
        bus::BusParams link;
        link.channels = 1;
        link.channelRate = netParams.hostLinkRate;
        link.startup = 0; // latency handled per hop
        for (int h = 0; h < host_count; ++h) {
            tx.push_back(std::make_unique<CoroBus>(s, link));
            rx.push_back(std::make_unique<CoroBus>(s, link));
        }
        int nedges = (host_count + netParams.hostsPerSwitch - 1)
                     / netParams.hostsPerSwitch;
        bus::BusParams uplink;
        uplink.channels = netParams.uplinksPerSwitch;
        uplink.channelRate = netParams.uplinkRate;
        uplink.startup = 0;
        for (int e = 0; e < nedges; ++e) {
            up.push_back(std::make_unique<CoroBus>(s, uplink));
            down.push_back(std::make_unique<CoroBus>(s, uplink));
        }
    }

    /**
     * Move @p bytes from @p src to @p dst, with net::Network's
     * loopback and zero-byte semantics.
     */
    sim::Coro<void>
    transport(int src, int dst, std::uint64_t bytes)
    {
        if (src == dst)
            co_return; // local delivery: no fabric, no time
        const std::uint64_t wire = std::max<std::uint64_t>(bytes, 1);
        const bool cross_edge =
            edgeOf(src) != edgeOf(dst) && up.size() > 1;
        const std::uint32_t frame = netParams.frameBytes;
        const int total = static_cast<int>((wire + frame - 1) / frame);

        // Shared with the per-frame forwarders; lives in this frame,
        // which stays alive until `done` fires.
        int arrived = 0;
        sim::Trigger done;

        std::uint64_t remaining = wire;
        while (remaining > 0) {
            std::uint32_t sz = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(remaining, frame));
            co_await at(tx, src).transfer(sz);
            simulator.spawnDetached(
                forwardFrame(src, dst, sz, cross_edge, &arrived, total,
                             &done),
                "frame");
            remaining -= sz;
        }
        co_await done.wait();
        movedBytes += bytes;
    }

    /** Total bytes moved across the fabric (loopback excluded). */
    std::uint64_t totalBytes() const { return movedBytes; }

  private:
    using Stage = std::vector<std::unique_ptr<CoroBus>>;

    static CoroBus &
    at(const Stage &stage, int idx)
    {
        return *stage[static_cast<std::size_t>(idx)];
    }

    int edgeOf(int host) const { return host / netParams.hostsPerSwitch; }

    sim::Coro<void>
    forwardFrame(int src, int dst, std::uint32_t bytes, bool cross_edge,
                 int *arrived, int total, sim::Trigger *done)
    {
        co_await sim::delay(netParams.hopLatency);
        if (cross_edge) {
            co_await at(up, edgeOf(src)).transfer(bytes);
            co_await sim::delay(netParams.hopLatency);
            co_await at(down, edgeOf(dst)).transfer(bytes);
            co_await sim::delay(netParams.hopLatency);
        }
        co_await at(rx, dst).transfer(bytes);
        if (++*arrived == total)
            done->fire();
    }

    sim::Simulator &simulator;
    net::NetParams netParams;
    Stage tx, rx, up, down;
    std::uint64_t movedBytes = 0;
};

} // namespace howsim::oracle

#endif // HOWSIM_TESTS_ORACLE_CORO_BUS_HH
