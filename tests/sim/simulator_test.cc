/**
 * @file Unit tests for the simulation executive and coroutines.
 *
 * Note the idiom used throughout: capturing lambdas that produce
 * coroutines are stored in named locals so the closure outlives the
 * coroutine frame (a lambda coroutine references its captures through
 * the closure object, which must stay alive).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/arena.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"

using namespace howsim::sim;

namespace
{

/** Counts its destruction: proves a frame's locals were unwound. */
struct DestroyCounter
{
    int *count;
    ~DestroyCounter() { ++*count; }
};

/** Park on @p trig (which never fires) with a counter local. */
Coro<void>
parkForever(Trigger *trig, int *destroyed)
{
    DestroyCounter guard{destroyed};
    co_await trig->wait();
}

} // namespace

TEST(Simulator, RunsScheduledActionsAndAdvancesClock)
{
    Simulator sim;
    std::vector<Tick> seen;
    sim.scheduleAt(10, [&] { seen.push_back(sim.now()); });
    sim.scheduleAt(25, [&] { seen.push_back(sim.now()); });
    Tick end = sim.run();
    EXPECT_EQ(end, 25u);
    EXPECT_EQ(seen, (std::vector<Tick>{10, 25}));
}

TEST(KeyedBand, OrdinaryFirstThenKeyOrderAcrossStreams)
{
    // Streams come out of allocKeyStream() in call order: the first
    // is stream 0, the second stream 1, so every key of the first
    // sorts before every key of the second.
    Simulator sim;
    KeyStream first = sim.allocKeyStream();
    KeyStream second = sim.allocKeyStream();
    const std::uint64_t a0 = first.next();
    const std::uint64_t a1 = first.next();
    const std::uint64_t b0 = second.next();
    auto streamOf = [](std::uint64_t key) {
        return (key & ~kKeyedSeqBand) >> KeyStream::counterBits;
    };
    EXPECT_EQ(streamOf(a0), 0u);
    EXPECT_EQ(streamOf(a1), 0u);
    EXPECT_EQ(streamOf(b0), 1u);
    EXPECT_LT(a0, a1);
    EXPECT_LT(a1, b0);

    // At one tick, posted in neither key nor stream order and
    // interleaved with ordinary schedules: every ordinary event runs
    // first (in schedule order), then the keyed ones in key order.
    std::vector<std::string> order;
    auto log = [&order](const char *tag) {
        return [&order, tag] { order.emplace_back(tag); };
    };
    constexpr Tick t = 100;
    sim.postKeyed(t, b0, log("b0"));
    sim.postKeyed(t, a1, log("a1"));
    sim.scheduleAt(t, log("o0"));
    sim.postKeyed(t, a0, log("a0"));
    sim.scheduleAt(t, log("o1"));
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"o0", "o1", "a0", "a1",
                                               "b0"}));
}

TEST(Simulator, RunUntilStopsEarly)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleAt(10, [&] { ++fired; });
    sim.scheduleAt(100, [&] { ++fired; });
    sim.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 50u);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, ProcessDelaysAccumulate)
{
    Simulator sim;
    Tick finished = 0;
    auto body = [&finished]() -> Coro<void> {
        co_await delay(100);
        co_await delay(200);
        finished = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(finished, 300u);
}

TEST(Simulator, SpawnedProcessesRunConcurrently)
{
    Simulator sim;
    std::vector<int> order;
    auto proc = [&order](int id, Tick t) -> Coro<void> {
        co_await delay(t);
        order.push_back(id);
    };
    sim.spawn(proc(1, 300));
    sim.spawn(proc(2, 100));
    sim.spawn(proc(3, 200));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Simulator, SubCoroutinesComposeAndReturnValues)
{
    Simulator sim;
    int result = 0;
    auto child = [](int x) -> Coro<int> {
        co_await delay(50);
        co_return x * 2;
    };
    auto body = [&result, &child]() -> Coro<void> {
        int a = co_await child(21);
        int b = co_await child(a);
        result = b;
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(result, 84);
    EXPECT_EQ(sim.now(), 100u);
}

namespace
{

Coro<int>
recurseDown(int depth)
{
    if (depth == 0)
        co_return 0;
    co_await delay(0);
    int below = co_await recurseDown(depth - 1);
    co_return below + 1;
}

} // namespace

TEST(Simulator, DeeplyNestedCoroutinesDoNotOverflow)
{
    Simulator sim;
    // 10k-deep recursion through symmetric transfer must not consume
    // native stack proportional to depth.
    int result = -1;
    auto body = [&result]() -> Coro<void> {
        result = co_await recurseDown(10000);
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(result, 10000);
}

TEST(Simulator, JoinWaitsForCompletion)
{
    Simulator sim;
    Tick join_time = 0;
    auto work = []() -> Coro<void> { co_await delay(500); };
    auto worker = sim.spawn(work());
    auto joiner = [&join_time, worker]() -> Coro<void> {
        co_await worker->join();
        join_time = Simulator::current()->now();
    };
    sim.spawn(joiner());
    sim.run();
    EXPECT_TRUE(worker->finished());
    EXPECT_EQ(join_time, 500u);
}

TEST(Simulator, JoinOnFinishedProcessDoesNotBlock)
{
    Simulator sim;
    auto work = []() -> Coro<void> { co_return; };
    auto worker = sim.spawn(work());
    bool joined = false;
    auto joiner = [&joined, worker]() -> Coro<void> {
        co_await delay(100);
        co_await worker->join();
        joined = true;
    };
    sim.spawn(joiner());
    sim.run();
    EXPECT_TRUE(joined);
}

TEST(Simulator, JoinAllWaitsForSlowest)
{
    Simulator sim;
    auto work = [](Tick d) -> Coro<void> { co_await delay(d); };
    std::vector<ProcessRef> workers;
    for (Tick t : {100u, 400u, 250u})
        workers.push_back(sim.spawn(work(t)));
    Tick done = 0;
    auto joiner = [&done, &workers]() -> Coro<void> {
        co_await joinAll(workers);
        done = Simulator::current()->now();
    };
    sim.spawn(joiner());
    sim.run();
    EXPECT_EQ(done, 400u);
}

TEST(Simulator, UnobservedProcessExceptionSurfacesFromRun)
{
    Simulator sim;
    auto body = []() -> Coro<void> {
        co_await delay(10);
        throw std::runtime_error("injected failure");
    };
    sim.spawn(body());
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, JoinerObservesProcessException)
{
    Simulator sim;
    auto failing_body = []() -> Coro<void> {
        co_await delay(10);
        throw std::runtime_error("boom");
    };
    auto failing = sim.spawn(failing_body());
    bool caught = false;
    auto joiner = [&caught, failing]() -> Coro<void> {
        try {
            co_await failing->join();
        } catch (const std::runtime_error &) {
            caught = true;
        }
    };
    sim.spawn(joiner());
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Simulator, ExceptionInChildPropagatesToParent)
{
    Simulator sim;
    bool caught = false;
    auto child = []() -> Coro<int> {
        co_await delay(5);
        throw std::logic_error("child failed");
    };
    auto body = [&caught, &child]() -> Coro<void> {
        try {
            co_await child();
        } catch (const std::logic_error &) {
            caught = true;
        }
    };
    sim.spawn(body());
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Simulator, TriggerWakesAllWaiters)
{
    Simulator sim;
    Trigger trig;
    int woken = 0;
    auto waiter = [&trig, &woken]() -> Coro<void> {
        co_await trig.wait();
        ++woken;
    };
    for (int i = 0; i < 5; ++i)
        sim.spawn(waiter());
    auto firer = [&trig]() -> Coro<void> {
        co_await delay(100);
        trig.fire();
    };
    sim.spawn(firer());
    sim.run();
    EXPECT_EQ(woken, 5);
}

TEST(Simulator, TriggerWakesWaitersInWaitOrder)
{
    // The first waiter is stored inline and the rest in a vector;
    // fire() must still wake them in the order they waited.
    Simulator sim;
    Trigger trig;
    std::vector<int> order;
    auto waiter = [&trig, &order](int id) -> Coro<void> {
        co_await trig.wait();
        order.push_back(id);
    };
    for (int i = 0; i < 4; ++i)
        sim.spawn(waiter(i));
    auto firer = [&trig]() -> Coro<void> {
        co_await delay(10);
        trig.fire();
    };
    sim.spawn(firer());
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, TriggerAfterFireDoesNotBlock)
{
    Simulator sim;
    Trigger trig;
    bool passed = false;
    auto body = [&]() -> Coro<void> {
        trig.fire();
        co_await trig.wait();
        passed = true;
    };
    sim.spawn(body());
    sim.run();
    EXPECT_TRUE(passed);
}

TEST(Simulator, TriggerResetRearms)
{
    Simulator sim;
    Trigger trig;
    int wakes = 0;
    auto body = [&]() -> Coro<void> {
        trig.fire();
        EXPECT_TRUE(trig.fired());
        trig.reset();
        EXPECT_FALSE(trig.fired());
        trig.fire();
        co_await trig.wait();
        ++wakes;
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(wakes, 1);
}

TEST(Simulator, YieldOrdersAfterCurrentTickEvents)
{
    Simulator sim;
    std::vector<int> order;
    auto first = [&order]() -> Coro<void> {
        order.push_back(1);
        co_await yield();
        order.push_back(3);
    };
    auto second = [&order]() -> Coro<void> {
        order.push_back(2);
        co_return;
    };
    sim.spawn(first());
    sim.spawn(second());
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsExecutedCounts)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.scheduleAt(static_cast<Tick>(i), [] {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 7u);
}

TEST(Simulator, ManyProcessesScale)
{
    Simulator sim;
    int completed = 0;
    auto work = [&completed](Tick d) -> Coro<void> {
        co_await delay(d);
        co_await delay(d);
        ++completed;
    };
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        sim.spawn(work(static_cast<Tick>(i % 97)));
    sim.run();
    EXPECT_EQ(completed, n);
}

TEST(Simulator, DetachedFramesFreeThemselvesOnCompletion)
{
    Simulator sim;
    int finished = 0;
    auto leg = [](int *done) -> Coro<void> {
        co_await delay(5);
        ++*done;
    };
    const std::uint64_t before = Arena::current()->stats().live;
    for (int i = 0; i < 50; ++i)
        sim.spawnDetached(leg(&finished), "leg");
    EXPECT_EQ(Arena::current()->stats().live, before + 50);
    sim.run();
    EXPECT_EQ(finished, 50);
    EXPECT_EQ(Arena::current()->stats().live, before);
}

TEST(Simulator, TeardownFreesSuspendedDetachedFrames)
{
    // The frames are made under a test-owned arena, so their count
    // outlives the simulator that runs them.
    Arena arena;
    ArenaScope scope(&arena);
    Trigger never;
    int destroyed = 0;
    {
        std::vector<Coro<void>> bodies;
        for (int i = 0; i < 4; ++i)
            bodies.push_back(parkForever(&never, &destroyed));
        EXPECT_EQ(arena.stats().live, 4u);
        Simulator sim;
        for (auto &body : bodies)
            sim.spawnDetached(std::move(body), "parked");
        sim.run();
        EXPECT_EQ(arena.stats().live, 4u) << "frames still suspended";
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 4);
    EXPECT_EQ(arena.stats().live, 0u);
}
