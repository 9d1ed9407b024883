/**
 * @file
 * Interconnect transfer-engine head-to-head: net::Network's calendar
 * engine vs the coroutine-per-frame test oracle
 * (tests/oracle/coro_bus.hh) on the same simulated traffic. Both
 * produce bit-identical simulated results (DESIGN.md §12); this
 * benchmark quantifies the host-time difference and feeds it to
 * BENCH_events.json.
 *
 * Scenarios:
 *
 *  - pairs128: 128 hosts in 64 disjoint same-edge pairs, each sender
 *    streaming sequential 256 KiB messages. No queueing anywhere —
 *    the uncontended case the calendar walker exists for: per-frame
 *    coroutine frames (sender loop, per-frame forwarders, per-bus
 *    transfer coroutines) are replaced by a handful of pooled events.
 *
 *  - solo: one request-response client over two switch hops. With
 *    the whole fabric quiet, every frame train collapses to a
 *    closed-form booking — O(hops) events per message instead of
 *    O(frames x hops) — the biggest win the engine offers.
 *
 *  - fanin16: sixteen senders saturating one receiver NIC. Heavy
 *    queueing keeps the calendar engine on its demoted per-frame
 *    path, bounding how much of the win survives contention.
 *
 * With --check[=pct] the binary exits non-zero unless the calendar
 * engine beats the coroutine oracle by at least <pct> percent
 * (default 25) wall-time on the uncontended pairs128 scenario — CI's
 * regression gate for the transfer fast path.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/bench_harness.hh"
#include "net/network.hh"
#include "oracle/coro_bus.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;
using howsim::oracle::CoroNetwork;

namespace
{

constexpr int kReps = 3;

struct RunCost
{
    double wallSeconds = 0;
    std::uint64_t events = 0;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(events) / wallSeconds
                   : 0;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** 64 disjoint same-edge pairs, sequential 256 KiB streams. */
template <typename NetT>
RunCost
runPairs(int hosts, int msgs, std::uint64_t bytes)
{
    auto start = std::chrono::steady_clock::now();
    RunCost cost;
    {
        Simulator sim;
        NetT fabric(sim, hosts);
        auto sender = [&fabric](int src, int dst, int n,
                                std::uint64_t sz) -> Coro<void> {
            for (int i = 0; i < n; ++i)
                co_await fabric.transport(src, dst, sz);
        };
        for (int h = 0; h + 1 < hosts; h += 2)
            sim.spawn(sender(h, h + 1, msgs, bytes));
        sim.run();
        cost.events = sim.eventsExecuted();
    }
    cost.wallSeconds = secondsSince(start);
    return cost;
}

/** One client/server pair, cross-edge, strict request-response. */
template <typename NetT>
RunCost
runSolo(int rounds, std::uint64_t bytes)
{
    auto start = std::chrono::steady_clock::now();
    RunCost cost;
    {
        Simulator sim;
        NetT fabric(sim, 32);
        auto client = [&fabric](int n, std::uint64_t sz) -> Coro<void> {
            for (int i = 0; i < n; ++i) {
                co_await fabric.transport(0, 17, sz); // request
                co_await fabric.transport(17, 0, sz); // response
            }
        };
        sim.spawn(client(rounds, bytes));
        sim.run();
        cost.events = sim.eventsExecuted();
    }
    cost.wallSeconds = secondsSince(start);
    return cost;
}

/** Sixteen senders into one receiver NIC: sustained queueing. */
template <typename NetT>
RunCost
runFanIn(int msgs, std::uint64_t bytes)
{
    auto start = std::chrono::steady_clock::now();
    RunCost cost;
    {
        Simulator sim;
        NetT fabric(sim, 17);
        auto sender = [&fabric](int src, int n,
                                std::uint64_t sz) -> Coro<void> {
            for (int i = 0; i < n; ++i)
                co_await fabric.transport(src, 16, sz);
        };
        for (int s = 0; s < 16; ++s)
            sim.spawn(sender(s, msgs, bytes));
        sim.run();
        cost.events = sim.eventsExecuted();
    }
    cost.wallSeconds = secondsSince(start);
    return cost;
}

/** Best wall time (and its event count) over kReps interleaved runs. */
template <typename Fn>
RunCost
best(Fn &&run)
{
    RunCost b = run();
    for (int r = 1; r < kReps; ++r) {
        RunCost c = run();
        if (c.wallSeconds < b.wallSeconds)
            b = c;
    }
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    double checkPct = -1.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            checkPct = 25.0;
        else if (std::strncmp(argv[i], "--check=", 8) == 0)
            checkPct = std::atof(argv[i] + 8);
    }

    core::BenchHarness harness("micro_net");

    struct Scenario
    {
        const char *name;
        RunCost coro;
        RunCost calendar;
    } scenarios[] = {
        {"pairs128",
         best([] { return runPairs<CoroNetwork>(128, 64, 256 * 1024); }),
         best([] { return runPairs<net::Network>(128, 64, 256 * 1024); })},
        {"solo",
         best([] { return runSolo<CoroNetwork>(2000, 1 << 20); }),
         best([] { return runSolo<net::Network>(2000, 1 << 20); })},
        {"fanin16",
         best([] { return runFanIn<CoroNetwork>(64, 256 * 1024); }),
         best([] { return runFanIn<net::Network>(64, 256 * 1024); })},
    };

    std::printf("transfer-engine head-to-head "
                "(best of %d reps, host time)\n", kReps);
    std::printf("  %-10s %12s %12s %14s %14s %9s\n", "scenario",
                "coro ms", "cal ms", "coro ev/s", "cal ev/s",
                "speedup");

    double gatePct = 0;
    for (const Scenario &s : scenarios) {
        double pct =
            (s.coro.wallSeconds / s.calendar.wallSeconds - 1.0) * 100.0;
        std::printf("  %-10s %12.2f %12.2f %14.3g %14.3g %+8.1f%%\n",
                    s.name, s.coro.wallSeconds * 1e3,
                    s.calendar.wallSeconds * 1e3,
                    s.coro.eventsPerSec(), s.calendar.eventsPerSec(),
                    pct);
        std::string tag = s.name;
        harness.metric(tag + "_coro_ms", s.coro.wallSeconds * 1e3);
        harness.metric(tag + "_calendar_ms",
                       s.calendar.wallSeconds * 1e3);
        harness.metric(tag + "_speedup_pct", pct);
        if (std::strcmp(s.name, "pairs128") == 0)
            gatePct = pct;
    }

    if (checkPct >= 0.0 && gatePct < checkPct) {
        std::fprintf(stderr,
                     "FAIL: calendar speedup %.1f%% on pairs128 below "
                     "required %.1f%%\n",
                     gatePct, checkPct);
        return 1;
    }
    return 0;
}
