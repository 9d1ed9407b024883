/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace howsim::sim;

// Global allocation counter: the zero-allocation claims of the
// InlineAction fast paths are part of the event loop's contract, so
// they are asserted, not assumed. Counting is cheap and the counter
// is only compared across regions that perform no other allocation.
namespace
{

std::size_t newCalls = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++newCalls;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++newCalls;
    std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop()();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTickReportsEarliest)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.schedule(7, [] {});
    EXPECT_EQ(q.nextTick(), 7u);
    q.pop();
    EXPECT_EQ(q.nextTick(), 100u);
}

TEST(EventQueue, InterleavedScheduleAndPop)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    q.pop()();
    q.schedule(2, [&] { order.push_back(2); });
    q.schedule(1, [&] { order.push_back(3); });
    // Later-scheduled tick-1 event still sorts before tick-2.
    EXPECT_EQ(q.nextTick(), 1u);
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, CountsScheduledEvents)
{
    EventQueue q;
    for (int i = 0; i < 42; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.scheduledCount(), 42u);
}

TEST(EventQueue, MoveOnlyCapture)
{
    EventQueue q;
    int observed = 0;
    auto payload = std::make_unique<int>(41);
    q.schedule(1, [p = std::move(payload), &observed] {
        observed = *p + 1;
    });
    q.pop()();
    EXPECT_EQ(observed, 42);
}

TEST(EventQueue, SmallCallableSchedulesWithoutAllocation)
{
    EventQueue q;
    q.reserve(16);
    int hits = 0;
    std::coroutine_handle<> noop = std::noop_coroutine();
    std::size_t before = newCalls;
    q.schedule(1, [&hits] { ++hits; });
    q.schedule(2, noop);
    std::size_t after = newCalls;
    EXPECT_EQ(after, before);
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(hits, 1);
}

TEST(EventQueue, LargeCaptureFallsBackToHeapAndStillRuns)
{
    static_assert(sizeof(std::array<std::uint64_t, 16>)
                  > InlineAction::inlineSize);
    EventQueue q;
    q.reserve(16);
    std::array<std::uint64_t, 16> big{};
    big[0] = 7;
    big[15] = 35;
    std::uint64_t sum = 0;
    std::size_t before = newCalls;
    q.schedule(1, [big, &sum] { sum = big[0] + big[15]; });
    std::size_t after = newCalls;
    EXPECT_GT(after, before);
    q.pop()();
    EXPECT_EQ(sum, 42u);
}

namespace
{

/** Counts live copies of itself, via moves and destructions. */
struct Probe
{
    int *alive;

    explicit Probe(int *a) : alive(a) { ++*alive; }
    Probe(const Probe &other) : alive(other.alive) { ++*alive; }
    Probe(Probe &&other) noexcept : alive(other.alive) { ++*alive; }
    ~Probe() { --*alive; }

    void operator()() const {}
};

/** A Probe padded past the inline buffer (heap-fallback variant). */
struct BigProbe : Probe
{
    using Probe::Probe;
    unsigned char pad[InlineAction::inlineSize] = {};
    void operator()() const {}
};

} // namespace

TEST(EventQueue, InlineCaptureDestroyedExactlyOnce)
{
    int alive = 0;
    {
        EventQueue q;
        q.schedule(1, Probe(&alive));
        q.schedule(2, Probe(&alive));
        EXPECT_EQ(alive, 2);
        q.pop()();
        EXPECT_EQ(alive, 1);
        // The second probe dies with the queue.
    }
    EXPECT_EQ(alive, 0);
}

TEST(EventQueue, HeapCaptureDestroyedExactlyOnce)
{
    int alive = 0;
    {
        EventQueue q;
        q.schedule(1, BigProbe(&alive));
        q.schedule(2, BigProbe(&alive));
        EXPECT_EQ(alive, 2);
        q.pop()();
        EXPECT_EQ(alive, 1);
    }
    EXPECT_EQ(alive, 0);
}

TEST(EventQueue, SiftingThroughTheHeapPreservesCaptures)
{
    // Schedule in reverse tick order so every push sifts past the
    // existing keys; the pooled captures must come out intact.
    EventQueue q;
    int alive = 0;
    std::vector<int> order;
    for (int i = 63; i >= 0; --i) {
        q.schedule(static_cast<Tick>(i),
                   [probe = Probe(&alive), &order, i] {
                       order.push_back(i);
                   });
    }
    EXPECT_EQ(alive, 64);
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(alive, 0);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// The containers sift, split and spill keys only; the actions stay in
// the queue's slot pool.
static_assert(std::is_trivially_copyable_v<SchedEntry>);
static_assert(sizeof(SchedEntry) <= 24);

TEST(EventQueue, PopReturnsTheEventsTick)
{
    EventQueue q;
    int hits = 0;
    q.schedule(9, [&hits] { ++hits; });
    q.schedule(4, [&hits] { hits += 10; });
    auto first = q.pop();
    EXPECT_EQ(first.when, 4u);
    first();
    auto second = q.pop();
    EXPECT_EQ(second.when, 9u);
    second();
    EXPECT_EQ(hits, 11);
}

TEST(EventQueue, ReservedHoldLoopDoesNotAllocate)
{
    // The classic hold model at a steady depth: pop one event and
    // schedule its successor a pseudo-random delay ahead. Once
    // reserve() has sized the container, the action pool and the
    // free-slot stack for the depth, neither the fill nor the loop
    // may allocate, under either policy.
    constexpr std::size_t depth = 64;
    for (SchedPolicy policy : {SchedPolicy::Ladder, SchedPolicy::Heap}) {
        EventQueue q(policy);
        q.reserve(depth);
        std::uint64_t state = 12345;
        auto delayAhead = [&state] {
            state = state * 6364136223846793005ull
                    + 1442695040888963407ull;
            return static_cast<Tick>((state >> 33) % 1000 + 1);
        };
        std::uint64_t sum = 0;
        std::size_t before = newCalls;
        for (std::size_t i = 0; i < depth; ++i)
            q.schedule(delayAhead(), [&sum] { ++sum; });
        for (int i = 0; i < 100000; ++i) {
            auto event = q.pop();
            event();
            q.schedule(event.when + delayAhead(), [&sum] { ++sum; });
        }
        std::size_t after = newCalls;
        EXPECT_EQ(after, before) << schedPolicyName(policy);
        EXPECT_EQ(q.size(), depth);
        EXPECT_EQ(sum, 100000u);
    }
}

TEST(EventQueue, PendingPooledActionsDestroyedOnceWithTheQueue)
{
    int alive = 0;
    {
        EventQueue q;
        // Interleave pops so pending actions sit in recycled slots as
        // well as fresh ones.
        for (int i = 0; i < 32; ++i)
            q.schedule(static_cast<Tick>(i), Probe(&alive));
        for (int i = 0; i < 16; ++i)
            q.pop()();
        for (int i = 0; i < 8; ++i)
            q.schedule(static_cast<Tick>(100 + i), BigProbe(&alive));
        EXPECT_EQ(alive, 24);
    }
    EXPECT_EQ(alive, 0);
}

TEST(InlineAction, MoveTransfersOwnership)
{
    int alive = 0;
    int hits = 0;
    {
        InlineAction a([probe = Probe(&alive), &hits] { ++hits; });
        InlineAction b(std::move(a));
        EXPECT_FALSE(static_cast<bool>(a));
        EXPECT_TRUE(static_cast<bool>(b));
        InlineAction c;
        c = std::move(b);
        EXPECT_FALSE(static_cast<bool>(b));
        c();
        EXPECT_EQ(hits, 1);
        EXPECT_EQ(alive, 1);
    }
    EXPECT_EQ(alive, 0);
}

TEST(InlineAction, CoroutineHandleConstructsWithoutAllocation)
{
    std::coroutine_handle<> noop = std::noop_coroutine();
    std::size_t before = newCalls;
    InlineAction a(noop);
    std::size_t after = newCalls;
    EXPECT_EQ(after, before);
    EXPECT_TRUE(static_cast<bool>(a));
    a();
}

TEST(Ticks, UnitConversions)
{
    EXPECT_EQ(microseconds(1), 1000u);
    EXPECT_EQ(milliseconds(1), 1000000u);
    EXPECT_EQ(seconds(1), 1000000000u);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(3)), 3.0);
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(5)), 5.0);
    EXPECT_DOUBLE_EQ(toMicroseconds(microseconds(9)), 9.0);
}

TEST(Ticks, FromSecondsRoundsAndClamps)
{
    EXPECT_EQ(fromSeconds(1.5e-9), 2u);
    EXPECT_EQ(fromSeconds(-1.0), 0u);
    EXPECT_EQ(fromSeconds(2.0), seconds(2));
}

TEST(Ticks, TransferTicksNeverZeroForNonzeroBytes)
{
    EXPECT_EQ(transferTicks(0, 100e6), 0u);
    EXPECT_GE(transferTicks(1, 1e12), 1u);
    // 1 MB over 100 MB/s = 10 ms.
    EXPECT_NEAR(static_cast<double>(transferTicks(1000000, 100e6)),
                static_cast<double>(milliseconds(10)), 1.0);
}
