/**
 * @file
 * Event-loop microbenchmark: host-time cost of scheduling and
 * dispatching simulator events.
 *
 * Two families of measurements feed BENCH_events.json:
 *
 *  1. Payload-shape costs through the default queue — a small
 *     trivially-copyable lambda (inline buffer), the
 *     coroutine-handle fast path (the dominant event in real
 *     simulations), and an oversized capture (heap fallback, present
 *     to quantify the fallback, not because the simulator uses it).
 *
 *  2. A scheduler head-to-head — the classic hold model (pop one
 *     event, schedule its successor a pseudo-random delay ahead) at
 *     steady queue depths spanning what the fig-scale benches
 *     sustain, run against the simulator's EventQueue (the ladder)
 *     and the binary-heap test oracle (tests/oracle/event_heap.hh).
 *     The delay distribution mixes the µs–ms bands real disk/net
 *     events occupy with a far-future tail so the ladder's top tier
 *     and rung splits are exercised, and it is identical for both
 *     queues, so the numbers differ only by scheduler cost.
 *
 * With --check[=pct] the binary exits non-zero unless the ladder
 * beats the heap by at least <pct> percent (default 10) at the
 * fig-scale depth — CI's regression gate for the O(1) scheduler.
 *
 * Unlike micro_sim (google-benchmark, human-oriented), this binary
 * feeds the BENCH_events.json perf trajectory via BenchHarness, so
 * regressions in the per-event cost are visible PR over PR.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/bench_harness.hh"
#include "oracle/event_heap.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;
using howsim::oracle::HeapQueue;

namespace
{

constexpr int kHoldReps = 3;
constexpr std::uint64_t kHoldOps = 1000000;

/** Steady queue depths matching the fig-scale benches' range. */
constexpr std::size_t kHoldDepths[] = {1024, 4096, 16384};

/** The depth the --check gate (and the headline metric) uses. */
constexpr std::size_t kGateDepth = 4096;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Schedule-and-drain throughput for a small inline lambda. */
double
lambdaEventsPerSec(int batches, int perBatch)
{
    std::uint64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) {
        EventQueue q;
        q.reserve(static_cast<std::size_t>(perBatch));
        for (int i = 0; i < perBatch; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 1000),
                       [&sink] { ++sink; });
        while (!q.empty())
            q.pop()();
    }
    double wall = secondsSince(start);
    return static_cast<double>(sink) / wall;
}

/**
 * Coroutine resume rate: processes ping through delay(), so every
 * event is a coroutine_handle travelling the dedicated fast path.
 */
double
coroutineEventsPerSec(int procs, int hops)
{
    auto start = std::chrono::steady_clock::now();
    std::uint64_t executed = 0;
    {
        Simulator sim;
        auto body = [](int n) -> Coro<void> {
            for (int i = 0; i < n; ++i)
                co_await delay(1);
        };
        for (int p = 0; p < procs; ++p)
            sim.spawn(body(hops));
        sim.run();
        executed = sim.eventsExecuted();
    }
    double wall = secondsSince(start);
    return static_cast<double>(executed) / wall;
}

/** Heap-fallback throughput: captures far beyond the inline buffer. */
double
heapFallbackEventsPerSec(int batches, int perBatch)
{
    std::uint64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) {
        EventQueue q;
        q.reserve(static_cast<std::size_t>(perBatch));
        std::array<std::uint64_t, 16> payload{};
        payload[0] = static_cast<std::uint64_t>(b);
        for (int i = 0; i < perBatch; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 1000),
                       [payload, &sink] { sink += payload[0] + 1; });
        while (!q.empty())
            q.pop()();
    }
    double wall = secondsSince(start);
    return static_cast<double>(sink > 0 ? batches * perBatch : 0)
           / wall;
}

/**
 * Uncontended Resource round-trips per second: every acquire is an
 * inline grant and every release finds no waiters — no events at
 * all. The per-transfer floor under the coroutine bus engine, and
 * the cost the calendar engine's arithmetic booking competes with.
 */
double
resourceUncontendedOpsPerSec(int ops)
{
    auto start = std::chrono::steady_clock::now();
    {
        Simulator sim;
        Resource res(1);
        auto user = [](Resource *r, int n) -> Coro<void> {
            for (int i = 0; i < n; ++i) {
                co_await r->acquire();
                r->release();
            }
        };
        sim.spawn(user(&res, ops));
        sim.run();
    }
    double wall = secondsSince(start);
    return static_cast<double>(ops) / wall;
}

/**
 * Single-waiter Trigger fire/wait rounds per second (one wake event
 * plus one yield event each) — the shape of the network's transfer
 * completion notification.
 */
double
triggerFireOpsPerSec(int rounds)
{
    auto start = std::chrono::steady_clock::now();
    {
        Simulator sim;
        Trigger trig;
        auto waiter = [](Trigger *t, int n) -> Coro<void> {
            for (int i = 0; i < n; ++i) {
                co_await t->wait();
                t->reset();
            }
        };
        auto firer = [](Trigger *t, int n) -> Coro<void> {
            for (int i = 0; i < n; ++i) {
                t->fire();
                co_await yield();
            }
        };
        sim.spawn(waiter(&trig, rounds));
        sim.spawn(firer(&trig, rounds));
        sim.run();
    }
    double wall = secondsSince(start);
    return static_cast<double>(rounds) / wall;
}

/**
 * Deterministic delay stream for the hold model. Three bands mirror
 * what a real run schedules: software overheads and hop latencies
 * (~1 µs), disk service times (µs–ms), and an occasional far-future
 * event (tens of ms) that lands in the ladder's overflow tier.
 */
struct DelayStream
{
    std::uint64_t state;

    explicit DelayStream(std::uint64_t seed)
        : state(seed ^ 0x9e3779b97f4a7c15ull)
    {
    }

    Tick
    next()
    {
        state = state * 6364136223846793005ull
                + 1442695040888963407ull;
        std::uint64_t r = state >> 33;
        switch (r & 7) {
          case 0:
          case 1:
          case 2:
            return 500 + r % microseconds(2);    // software / hops
          case 7:
            return milliseconds(10) + r % milliseconds(100);
          default:
            return microseconds(50) + r % milliseconds(2);
        }
    }
};

/**
 * Same-tick burst: thousands of events on one tick, with more of the
 * same tick appended mid-drain — the simulator's zero-delay cascade
 * shape (a completion handler resumes a coroutine that immediately
 * schedules another handler). The ladder serves this from its sorted
 * run bottom (O(1) indexed pops and O(1) same-tick appends, arena
 * payloads); the heap sifts every pop. Both queues drain in the
 * same order, so the difference is pure batching.
 */
template <typename Queue>
double
burstEventsPerSec(int batches, int perBatch)
{
    std::uint64_t sink = 0;
    std::uint64_t ops = 0;
    auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) {
        Queue q;
        q.reserve(static_cast<std::size_t>(perBatch));
        const Tick burst = milliseconds(5);
        for (int i = 0; i < perBatch; ++i)
            q.schedule(burst, [&sink] { ++sink; });
        // Drain while topping the same tick up, like a cascade does.
        for (int i = 0; i < perBatch / 2; ++i) {
            q.pop()();
            q.schedule(burst, [&sink] { ++sink; });
        }
        while (!q.empty())
            q.pop()();
        ops += static_cast<std::uint64_t>(perBatch)
               + static_cast<std::uint64_t>(perBatch / 2);
    }
    double wall = secondsSince(start);
    return static_cast<double>(ops) / wall;
}

/**
 * Hold model: steady depth, each pop schedules one successor. The
 * delay stream depends only on the call sequence and both queues
 * drain in identical order, so the event population is the same and
 * the measured difference is pure scheduler cost.
 */
template <typename Queue>
double
holdEventsPerSec(std::size_t depth, std::uint64_t ops)
{
    Queue q;
    q.reserve(depth);
    DelayStream delays(depth);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(delays.next(), [&sink] { ++sink; });
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t op = 0; op < ops; ++op) {
        Tick now = q.nextTick();
        q.pop()();
        q.schedule(now + delays.next(), [&sink] { ++sink; });
    }
    double wall = secondsSince(start);
    return static_cast<double>(ops) / wall;
}

} // namespace

int
main(int argc, char **argv)
{
    double checkPct = -1.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            checkPct = 10.0;
        else if (std::strncmp(argv[i], "--check=", 8) == 0)
            checkPct = std::atof(argv[i] + 8);
    }

    core::BenchHarness harness("micro_events");

    double lambda = lambdaEventsPerSec(20, 100000);
    double coro = coroutineEventsPerSec(1000, 2000);
    double heapFb = heapFallbackEventsPerSec(20, 100000);
    double resFast = resourceUncontendedOpsPerSec(2000000);
    double trigFast = triggerFireOpsPerSec(1000000);

    std::printf("event-loop microbenchmark (host events/sec)\n");
    std::printf("  %-34s %12.3g\n", "inline lambda schedule+dispatch",
                lambda);
    std::printf("  %-34s %12.3g\n", "coroutine-handle fast path", coro);
    std::printf("  %-34s %12.3g\n", "oversized capture (heap fallback)",
                heapFb);
    std::printf("  %-34s %12.3g\n", "resource uncontended acquire",
                resFast);
    std::printf("  %-34s %12.3g\n", "trigger single-waiter fire",
                trigFast);

    harness.metric("lambda_events_per_sec", lambda);
    harness.metric("coroutine_events_per_sec", coro);
    harness.metric("heap_fallback_events_per_sec", heapFb);
    harness.metric("resource_uncontended_ops_per_sec", resFast);
    harness.metric("trigger_fire_ops_per_sec", trigFast);

    std::printf("\nscheduler head-to-head, hold model "
                "(best of %d reps)\n", kHoldReps);
    std::printf("  %8s %14s %14s %9s\n", "depth", "heap ev/s",
                "ladder ev/s", "speedup");

    double gateSpeedupPct = 0;
    for (std::size_t depth : kHoldDepths) {
        // Interleave reps so frequency drift hits both alike.
        double heap = 0, ladder = 0;
        for (int r = 0; r < kHoldReps; ++r) {
            heap = std::max(
                heap, holdEventsPerSec<HeapQueue>(depth, kHoldOps));
            ladder = std::max(
                ladder, holdEventsPerSec<EventQueue>(depth, kHoldOps));
        }
        double speedupPct = (ladder / heap - 1.0) * 100.0;
        std::printf("  %8zu %14.3g %14.3g %+8.1f%%\n", depth, heap,
                    ladder, speedupPct);
        std::string tag = std::to_string(depth);
        harness.metric("hold" + tag + "_heap_events_per_sec", heap);
        harness.metric("hold" + tag + "_ladder_events_per_sec",
                       ladder);
        if (depth == kGateDepth) {
            gateSpeedupPct = speedupPct;
            harness.metric("ladder_speedup_pct", speedupPct);
        }
    }

    // Same-tick burst head-to-head: the batched sorted-run drain must
    // at least match the sifting heap on its best shape, or the
    // batching (or the arena behind it) has regressed.
    double burstHeap = 0, burstLadder = 0;
    for (int r = 0; r < kHoldReps; ++r) {
        burstHeap = std::max(burstHeap,
                             burstEventsPerSec<HeapQueue>(20, 20000));
        burstLadder = std::max(
            burstLadder, burstEventsPerSec<EventQueue>(20, 20000));
    }
    double burstSpeedupPct = (burstLadder / burstHeap - 1.0) * 100.0;
    std::printf("\nsame-tick burst (batched drain) head-to-head\n");
    std::printf("  %8s %14.3g %14.3g %+8.1f%%\n", "burst", burstHeap,
                burstLadder, burstSpeedupPct);
    harness.metric("burst_heap_events_per_sec", burstHeap);
    harness.metric("burst_ladder_events_per_sec", burstLadder);
    harness.metric("burst_speedup_pct", burstSpeedupPct);

    if (checkPct >= 0.0 && gateSpeedupPct < checkPct) {
        std::fprintf(stderr,
                     "FAIL: ladder speedup %.1f%% at depth %zu below "
                     "required %.1f%%\n",
                     gateSpeedupPct, kGateDepth, checkPct);
        return 1;
    }
    if (checkPct >= 0.0 && burstSpeedupPct < 0.0) {
        std::fprintf(stderr,
                     "FAIL: batched same-tick drain %.1f%% slower "
                     "than the heap oracle\n",
                     -burstSpeedupPct);
        return 1;
    }
    return 0;
}
