/**
 * @file
 * Scheduler conformance: the ladder queue behind sim::EventQueue must
 * drain in exactly the order the binary-heap oracle
 * (tests/oracle/event_heap.hh) does — same ticks, same same-tick
 * FIFO resolution, for any schedule/pop interleaving. A randomized
 * differential fuzz plus directed cases for the ladder's structural
 * edges (far-future spill, rung split, refill boundaries, tick
 * saturation) make that claim safe.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "oracle/event_heap.hh"
#include "sim/event_queue.hh"

using namespace howsim::sim;
using howsim::oracle::HeapQueue;

namespace
{

/** Deterministic 64-bit LCG (same constants as std::mt19937_64 seeds
 * by; quality is irrelevant, reproducibility is not). */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed)
        : state(seed ^ 0x9e3779b97f4a7c15ull)
    {
    }

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull
                + 1442695040888963407ull;
        return state >> 16;
    }

    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }
};

/** (tick, id) drain record; equal sequences ⇔ identical schedules. */
using Trace = std::vector<std::pair<Tick, int>>;

/**
 * Twin queues driven by one op stream. Every schedule lands in both
 * queues with the same tick and id; drains record into per-queue
 * traces that the tests compare element-wise.
 */
struct Twins
{
    HeapQueue heap;
    EventQueue ladder;
    Trace heapTrace, ladderTrace;
    int nextId = 0;

    void
    schedule(Tick when)
    {
        int id = nextId++;
        heap.schedule(when, [this, when, id] {
            heapTrace.emplace_back(when, id);
        });
        ladder.schedule(when, [this, when, id] {
            ladderTrace.emplace_back(when, id);
        });
    }

    void
    popBoth()
    {
        ASSERT_EQ(heap.nextTick(), ladder.nextTick());
        heap.pop()();
        ladder.pop()();
    }

    void
    drain()
    {
        while (!heap.empty() || !ladder.empty()) {
            ASSERT_FALSE(heap.empty());
            ASSERT_FALSE(ladder.empty());
            popBoth();
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    void
    expectTracesIdentical() const
    {
        ASSERT_EQ(heapTrace.size(), ladderTrace.size());
        for (std::size_t i = 0; i < heapTrace.size(); ++i) {
            ASSERT_EQ(heapTrace[i], ladderTrace[i])
                << "divergence at drain position " << i;
        }
    }
};

} // namespace

// The core differential fuzz: random mix of schedules (spanning the
// same-tick, near, mid and far-future bands real workloads produce)
// and pops, across several seeds. Any routing or ordering bug in the
// ladder's tiers shows up as a trace divergence.
TEST(SchedConformance, RandomTrafficDrainsIdentically)
{
    for (std::uint64_t seed : {1ull, 42ull, 20260807ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Twins twins;
        Rng rng(seed);
        Tick now = 0;
        for (int op = 0; op < 20000; ++op) {
            if (twins.heap.empty() || rng.below(8) < 5) {
                Tick delay = 0;
                switch (rng.below(8)) {
                  case 0:
                    delay = 0; // same tick: FIFO tie
                    break;
                  case 1:
                  case 2:
                    delay = rng.below(microseconds(2));
                    break;
                  case 7:
                    delay = milliseconds(10)
                            + rng.below(milliseconds(200));
                    break;
                  default:
                    delay = microseconds(50)
                            + rng.below(milliseconds(2));
                }
                twins.schedule(now + delay);
            } else {
                now = twins.heap.nextTick();
                twins.popBoth();
                if (HasFatalFailure())
                    return;
            }
        }
        twins.drain();
        twins.expectTracesIdentical();
    }
}

// A dense burst on one far-future tick crosses the spill path with a
// zero-width span; the ladder must preserve schedule order exactly.
TEST(SchedConformance, SameTickBurstStaysFifo)
{
    Twins twins;
    for (int i = 0; i < 1000; ++i)
        twins.schedule(milliseconds(5));
    twins.drain();
    twins.expectTracesIdentical();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(twins.ladderTrace[static_cast<std::size_t>(i)]
                      .second,
                  i);
    }
}

// More events than splitThreshold clustered inside a microsecond,
// plus outliers hundreds of ms away: the spill creates a coarse rung
// whose crowded bucket must split into a finer child rung mid-drain.
TEST(SchedConformance, FarFutureSpillAndRungSplit)
{
    Twins twins;
    Rng rng(7);
    constexpr std::size_t cluster =
        4 * EventLadder::splitThreshold;
    for (std::size_t i = 0; i < cluster; ++i)
        twins.schedule(milliseconds(100) + rng.below(microseconds(1)));
    for (int i = 0; i < 32; ++i)
        twins.schedule(rng.below(seconds(1)));
    twins.drain();
    twins.expectTracesIdentical();
}

// Schedules that land exactly at / just past the drain frontier after
// pops have advanced it: these route into bottom or the deepest rung
// and must still interleave correctly with what is already there.
TEST(SchedConformance, SchedulesAtTheRefillBoundary)
{
    Twins twins;
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        twins.schedule(rng.below(milliseconds(1)));
    for (int round = 0; round < 100; ++round) {
        Tick now = twins.heap.nextTick();
        twins.popBoth();
        if (HasFatalFailure())
            return;
        twins.schedule(now);                       // current tick
        twins.schedule(now + 1);                   // next tick
        twins.schedule(now + rng.below(microseconds(5)) + 1);
    }
    twins.drain();
    twins.expectTracesIdentical();
}

// Ticks at the end of representable time saturate the ladder's bucket
// arithmetic; events there must still drain, in order, exactly once.
TEST(SchedConformance, MaxTickEventsDrain)
{
    Twins twins;
    twins.schedule(maxTick);
    twins.schedule(maxTick - 1);
    twins.schedule(maxTick);
    for (int i = 0; i < 100; ++i)
        twins.schedule(static_cast<Tick>(i * 1000));
    twins.drain();
    twins.expectTracesIdentical();
    ASSERT_EQ(twins.ladderTrace.size(), 103u);
    EXPECT_EQ(twins.ladderTrace[100].first, maxTick - 1);
    EXPECT_EQ(twins.ladderTrace[101].first, maxTick);
    EXPECT_EQ(twins.ladderTrace[102].first, maxTick);
}

// The simulator's real pattern: handlers schedule follow-on events
// while the queue drains. Successor chains must stay identical.
template <typename Queue>
Trace
drainHandlerChains()
{
    Queue q;
    Trace trace;
    Rng rng(3);
    int nextId = 0;
    // Self-perpetuating handlers, terminated by event budget.
    struct Chain
    {
        Queue &q;
        Trace &trace;
        Rng &rng;
        int &nextId;

        void
        hop(Tick when, int id, int hopsLeft)
        {
            q.schedule(when, [this, when, id, hopsLeft] {
                trace.emplace_back(when, id);
                if (hopsLeft > 0) {
                    hop(when + rng.below(milliseconds(1)) + 1,
                        nextId++, hopsLeft - 1);
                }
            });
        }
    } chain{q, trace, rng, nextId};
    for (int i = 0; i < 64; ++i)
        chain.hop(rng.below(microseconds(10)), nextId++, 50);
    while (!q.empty())
        q.pop()();
    return trace;
}

TEST(SchedConformance, HandlersSchedulingDuringDrain)
{
    Trace reference = drainHandlerChains<HeapQueue>();
    Trace trace = drainHandlerChains<EventQueue>();
    ASSERT_EQ(trace.size(), reference.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(trace[i], reference[i]) << "position " << i;
}

// Occupancy must account for every scheduled event across the three
// tiers, before and during a drain.
TEST(SchedConformance, OccupancySumsToSize)
{
    EventQueue q;
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        q.schedule(rng.below(seconds(1)), [] {});
    auto occ = q.ladderOccupancy();
    EXPECT_EQ(occ.bottom + occ.rungEvents + occ.top, q.size());
    for (int i = 0; i < 2500; ++i)
        q.pop()();
    occ = q.ladderOccupancy();
    EXPECT_EQ(occ.bottom + occ.rungEvents + occ.top, q.size());
}

// ---- Batched same-tick drains (the ladder's "sorted run" bottom) ----

// A single-tick bucket promotes into sorted-run mode; appends arriving
// WHILE the run drains (the simulator's same-tick cascade pattern:
// a handler resumes a coroutine that schedules another handler at the
// same tick) must extend the run in FIFO order, not restart or resift.
TEST(SchedConformance, SameTickAppendsDuringDrainStayFifo)
{
    Twins twins;
    const Tick burst = milliseconds(7);
    for (int i = 0; i < 200; ++i)
        twins.schedule(burst);
    // Enter the drain, then keep feeding the same tick from inside it.
    for (int i = 0; i < 100; ++i) {
        twins.popBoth();
        if (HasFatalFailure())
            return;
        twins.schedule(burst);
        twins.schedule(burst);
    }
    twins.drain();
    twins.expectTracesIdentical();
    // 200 + 200 appended, all at one tick, ids strictly in schedule
    // order end to end.
    ASSERT_EQ(twins.ladderTrace.size(), 400u);
    for (std::size_t i = 0; i < twins.ladderTrace.size(); ++i) {
        EXPECT_EQ(twins.ladderTrace[i].first, burst);
        EXPECT_EQ(twins.ladderTrace[i].second, static_cast<int>(i));
    }
}

// A push at a *different* tick that still lands in the bottom range
// must demote the sorted run back to a heap without losing position:
// the partially-drained run and the newcomer interleave exactly as
// the reference heap says.
TEST(SchedConformance, MixedTickPushDemotesTheSortedRun)
{
    Twins twins;
    const Tick burst = milliseconds(3);
    for (int i = 0; i < 300; ++i)
        twins.schedule(burst);
    for (int i = 0; i < 50; ++i) {
        twins.popBoth();
        if (HasFatalFailure())
            return;
    }
    // Same tick (extends the run), later ticks (demote), earlier
    // future ticks that re-promote fresh single-tick buckets.
    twins.schedule(burst);
    for (int i = 1; i <= 40; ++i)
        twins.schedule(burst + static_cast<Tick>(i));
    for (int i = 0; i < 40; ++i)
        twins.schedule(burst + microseconds(2));
    twins.drain();
    twins.expectTracesIdentical();
}

// Differential fuzz biased to same-tick traffic: most schedules reuse
// the current head tick, so the queue spends the run oscillating
// between sorted-run mode, demotions and re-promotions.
TEST(SchedConformance, SameTickHeavyTrafficDrainsIdentically)
{
    for (std::uint64_t seed : {2ull, 99ull, 20260809ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Twins twins;
        Rng rng(seed);
        Tick now = 0;
        for (int op = 0; op < 20000; ++op) {
            if (twins.heap.empty() || rng.below(8) < 5) {
                Tick when = now;
                switch (rng.below(8)) {
                  case 0:
                  case 1:
                  case 2:
                  case 3:
                  case 4:
                    break; // same tick: the common cascade
                  case 5:
                    when = now + rng.below(16);
                    break;
                  case 6:
                    when = now + microseconds(3);
                    break;
                  default:
                    when = now + milliseconds(20)
                           + rng.below(milliseconds(50));
                }
                twins.schedule(when);
            } else {
                now = twins.heap.nextTick();
                twins.popBoth();
                if (HasFatalFailure())
                    return;
            }
        }
        twins.drain();
        twins.expectTracesIdentical();
    }
}

// Occupancy accounting must hold while bottom is mid-run: the served
// prefix of the sorted run is no longer counted.
TEST(SchedConformance, OccupancyTracksThePartiallyDrainedRun)
{
    EventQueue q;
    const Tick burst = milliseconds(9);
    for (int i = 0; i < 512; ++i)
        q.schedule(burst, [] {});
    for (int i = 0; i < 200; ++i)
        q.pop()();
    auto occ = q.ladderOccupancy();
    EXPECT_EQ(occ.bottom + occ.rungEvents + occ.top, q.size());
    EXPECT_EQ(q.size(), 312u);
}
