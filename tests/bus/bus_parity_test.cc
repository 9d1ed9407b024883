/**
 * @file
 * Statistics parity between bus::Bus and the coroutine oracle
 * (tests/oracle/coro_bus.hh): the same contended workload run on
 * each must report identical BusStats (transfers, bytes, busyTicks),
 * totalWait, utilization and end-of-run queueLength — not merely
 * identical completion times. This pins the calendar engine's
 * bookkeeping (synchronous release-time grants, reservation
 * commit/adopt paths) to the Resource-based reference.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "bus/bus.hh"
#include "oracle/coro_bus.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"

using namespace howsim::bus;
using namespace howsim::sim;
using howsim::oracle::CoroBus;

namespace
{

/** Everything a Bus reports about a finished run. */
struct Report
{
    std::uint64_t transfers;
    std::uint64_t bytes;
    Tick busyTicks;
    Tick totalWait;
    double utilization;
    std::size_t queueLength;
    Tick elapsed;
};

/**
 * A staggered, oversubscribed workload: several waves of transfers
 * with mixed sizes and arrival times, enough concurrency to keep
 * every channel busy and a queue formed for most of the run.
 */
template <typename BusT>
Report
runWorkload(int channels, double rate)
{
    Simulator sim;
    BusParams p;
    p.name = "parity";
    p.channels = channels;
    p.channelRate = rate;
    p.startup = microseconds(10);
    BusT bus(sim, p);
    auto user = [&bus](Tick start, std::uint64_t bytes,
                       int repeats) -> Coro<void> {
        co_await delay(start);
        for (int r = 0; r < repeats; ++r)
            co_await bus.transfer(bytes);
    };
    for (int i = 0; i < 16; ++i) {
        sim.spawn(user(microseconds(i * 3), 64 * 1024 + 1000u * i, 4));
        sim.spawn(user(microseconds(i * 7 + 1), 777u * (i + 1), 2));
    }
    sim.spawn(user(0, 0, 3)); // zero-byte transfers: startup only
    sim.run();
    Report rep;
    rep.transfers = bus.stats().transfers;
    rep.bytes = bus.stats().bytes;
    rep.busyTicks = bus.stats().busyTicks;
    rep.totalWait = bus.totalWait();
    rep.utilization = bus.utilization(sim.now());
    rep.queueLength = bus.queueLength();
    rep.elapsed = sim.now();
    return rep;
}

void
expectParity(int channels, double rate)
{
    Report coro = runWorkload<CoroBus>(channels, rate);
    Report cal = runWorkload<Bus>(channels, rate);
    EXPECT_EQ(coro.elapsed, cal.elapsed);
    EXPECT_EQ(coro.transfers, cal.transfers);
    EXPECT_EQ(coro.bytes, cal.bytes);
    EXPECT_EQ(coro.busyTicks, cal.busyTicks);
    EXPECT_EQ(coro.totalWait, cal.totalWait);
    EXPECT_DOUBLE_EQ(coro.utilization, cal.utilization);
    EXPECT_EQ(coro.queueLength, cal.queueLength);
    EXPECT_EQ(cal.queueLength, 0u); // drained
}

} // namespace

TEST(BusParity, SingleChannelUnderContention)
{
    expectParity(1, 100e6);
}

TEST(BusParity, DualLoopFcAlUnderContention)
{
    expectParity(2, 100e6);
}

TEST(BusParity, FourChannelsFastLink)
{
    expectParity(4, 700e6);
}

/**
 * Mid-run parity: the instantaneous queueLength and totalWait agree
 * while transfers are still queued, not only after the drain.
 */
TEST(BusParity, MidRunQueueObservationsAgree)
{
    struct Probe
    {
        std::size_t queueLength;
        Tick totalWait;
        double utilization;
    };
    auto sample = [](auto tag) {
        using BusT = typename decltype(tag)::type;
        Simulator sim;
        BusParams p;
        p.channels = 2;
        p.channelRate = 100e6;
        p.startup = microseconds(10);
        BusT bus(sim, p);
        auto user = [&bus](std::uint64_t bytes) -> Coro<void> {
            co_await bus.transfer(bytes);
        };
        for (int i = 0; i < 8; ++i)
            sim.spawn(user(1000000 + 10000u * i));
        std::vector<Probe> probes;
        auto prober = [&]() -> Coro<void> {
            for (int i = 0; i < 6; ++i) {
                co_await delay(milliseconds(2));
                probes.push_back({bus.queueLength(), bus.totalWait(),
                                  bus.utilization(
                                      Simulator::current()->now())});
            }
        };
        sim.spawn(prober());
        sim.run();
        return probes;
    };
    auto coro = sample(std::type_identity<CoroBus>{});
    auto cal = sample(std::type_identity<Bus>{});
    ASSERT_EQ(coro.size(), cal.size());
    bool sawQueue = false;
    for (std::size_t i = 0; i < coro.size(); ++i) {
        EXPECT_EQ(coro[i].queueLength, cal[i].queueLength) << i;
        EXPECT_EQ(coro[i].totalWait, cal[i].totalWait) << i;
        EXPECT_DOUBLE_EQ(coro[i].utilization, cal[i].utilization) << i;
        sawQueue = sawQueue || coro[i].queueLength > 0;
    }
    EXPECT_TRUE(sawQueue); // the probe really observed contention
}
