/**
 * @file
 * Differential conformance suite for net::Network against the
 * coroutine-per-frame oracle (tests/oracle/coro_bus.hh): every
 * scenario is executed on both and the full completion trace —
 * (tick, message) in completion order — must match exactly, as must
 * the fabric byte total. This is the executable form of the
 * DESIGN.md §12 equivalence argument, aimed at the spots where it
 * could break: same-tick collisions, oversubscribed stages, collapse
 * demotion and multi-channel buses.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "oracle/coro_bus.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::net;
using namespace howsim::sim;

namespace
{

struct Msg
{
    int src;
    int dst;
    std::uint64_t bytes;
    Tick start = 0;
};

/** Completion trace: (tick, message index) in completion order. */
using Trace = std::vector<std::pair<Tick, int>>;

/** Run @p msgs on a fresh NetT; returns the trace and fabric bytes. */
template <typename NetT>
std::pair<Trace, std::uint64_t>
runMsgs(int hosts, const std::vector<Msg> &msgs, NetParams base)
{
    Simulator sim;
    NetT net(sim, hosts, base);
    Trace trace;
    auto one = [&](int idx) -> Coro<void> {
        const Msg &m = msgs[static_cast<std::size_t>(idx)];
        if (m.start > 0)
            co_await delay(m.start);
        co_await net.transport(m.src, m.dst, m.bytes);
        trace.emplace_back(Simulator::current()->now(), idx);
    };
    for (int i = 0; i < static_cast<int>(msgs.size()); ++i)
        sim.spawn(one(i));
    sim.run();
    return {trace, net.totalBytes()};
}

/** Run on Network and the oracle; require identical traces. */
void
expectConformance(int hosts, const std::vector<Msg> &msgs,
                  NetParams base = {})
{
    auto [coro, coroBytes] =
        runMsgs<oracle::CoroNetwork>(hosts, msgs, base);
    auto [cal, calBytes] = runMsgs<Network>(hosts, msgs, base);
    EXPECT_EQ(coroBytes, calBytes);
    ASSERT_EQ(coro.size(), msgs.size());
    ASSERT_EQ(coro.size(), cal.size());
    for (std::size_t i = 0; i < coro.size(); ++i) {
        EXPECT_EQ(coro[i].first, cal[i].first)
            << "completion #" << i << " tick mismatch (msg "
            << coro[i].second << " vs " << cal[i].second << ")";
        EXPECT_EQ(coro[i].second, cal[i].second)
            << "completion #" << i << " order mismatch";
    }
}

} // namespace

TEST(NetConformance, SingleMessagesAllSizes)
{
    // One message at a time: sub-frame, exact frame multiples, large
    // trains, zero-byte control messages and loopback.
    std::vector<Msg> msgs;
    int i = 0;
    for (std::uint64_t sz :
         {0ull, 1ull, 1000ull, 65536ull, 65537ull, 131072ull,
          1000000ull, 10000000ull}) {
        msgs.push_back({0, 1, sz, Tick(i) * seconds(2)});
        ++i;
    }
    msgs.push_back({2, 2, 500000, 0}); // loopback
    expectConformance(4, msgs);
}

TEST(NetConformance, IntraEdgeDisjointPairs)
{
    // Uncontended: every message collapses to the closed form.
    std::vector<Msg> msgs;
    for (int p = 0; p < 8; ++p)
        msgs.push_back({2 * p, 2 * p + 1, 2000000, 0});
    expectConformance(16, msgs);
}

TEST(NetConformance, FanInCongestion)
{
    // Many senders into one receiver NIC, same-tick starts: the
    // receiver stage never stays quiet, so the calendar path runs
    // demoted per-frame bookings with queue contention.
    std::vector<Msg> msgs;
    for (int s = 0; s < 8; ++s)
        msgs.push_back({s, 8, 1000000ull + 64 * 1024 * (unsigned)s, 0});
    expectConformance(9, msgs);
}

TEST(NetConformance, SameSourceInterleavedTrains)
{
    // Several messages leaving one host concurrently interleave
    // frame-by-frame on the sender NIC.
    std::vector<Msg> msgs;
    for (int d = 1; d <= 4; ++d)
        msgs.push_back({0, d, 700000, 0});
    msgs.push_back({0, 1, 65536, milliseconds(10)});
    expectConformance(5, msgs);
}

TEST(NetConformance, OversubscribedUplinks)
{
    // Cross-edge all-out: 16 hosts on edge 0 all send to edge 1, so
    // the two gigabit uplinks are oversubscribed and multi-channel
    // grant order matters.
    std::vector<Msg> msgs;
    for (int s = 0; s < 16; ++s)
        msgs.push_back({s, 16 + s, 4000000, 0});
    expectConformance(32, msgs);
}

TEST(NetConformance, BarrierShuffleAllToAll)
{
    // The sort shuffle: everybody sends to everybody at the same
    // tick, with quantized equal sizes maximizing tick collisions.
    const int n = 6;
    std::vector<Msg> msgs;
    for (int s = 0; s < n; ++s)
        for (int d = 0; d < n; ++d)
            if (s != d)
                msgs.push_back({s, d, 512 * 1024, 0});
    expectConformance(n, msgs);
}

TEST(NetConformance, CollapseDemotedMidTrain)
{
    // A long quiet train collapses; a later sender then books the
    // shared receiver mid-flight and forces a demotion with frames
    // in every state (done, active, queued, not yet arrived).
    std::vector<Msg> msgs;
    msgs.push_back({0, 2, 8 * 1024 * 1024, 0});
    msgs.push_back({1, 2, 300000, milliseconds(100)});
    msgs.push_back({1, 2, 0, milliseconds(200)}); // zero-byte poke
    msgs.push_back({3, 2, 130000, milliseconds(300)});
    expectConformance(4, msgs);
}

TEST(NetConformance, RandomFuzz)
{
    // Deterministic fuzz over mixed shapes: random endpoints (incl.
    // occasional loopback), sizes from zero bytes to multi-frame
    // trains, staggered and same-tick starts, across two edges.
    std::minstd_rand rng(12345);
    for (int round = 0; round < 6; ++round) {
        std::vector<Msg> msgs;
        int n = 12 + static_cast<int>(rng() % 20);
        for (int i = 0; i < n; ++i) {
            Msg m;
            m.src = static_cast<int>(rng() % 20);
            m.dst = static_cast<int>(rng() % 20);
            switch (rng() % 4) {
              case 0: m.bytes = rng() % 100; break;
              case 1: m.bytes = rng() % 65536; break;
              case 2: m.bytes = 64 * 1024 * (1 + rng() % 8); break;
              default: m.bytes = rng() % 3000000; break;
            }
            m.start = (rng() % 2) ? 0
                                  : microseconds(rng() % 200000);
            msgs.push_back(m);
        }
        expectConformance(20, msgs);
    }
}
