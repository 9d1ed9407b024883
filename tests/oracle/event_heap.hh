/**
 * @file
 * Test oracle for the event scheduler: a single binary heap.
 *
 * The simulator's only scheduler is the ladder queue
 * (sim/event_ladder.hh, behind sim::EventQueue). This header keeps
 * the binary heap it replaced, as the reference the ladder is
 * differentially tested and benchmarked against
 * (tests/sim/sched_conformance_test.cc, bench/micro_events.cc).
 *
 * HeapQueue mirrors EventQueue's interface and storage split: actions
 * are parked in a slot pool and the heap sifts 24-byte
 * {tick, seq, ref} keys (ref = slot << 1 | 1, EventQueue's tag for a
 * parked action; the oracle parks coroutine resumptions too) with
 * the <algorithm> heap primitives,
 * O(log n) per schedule and pop. Both drain in strict (tick, seq)
 * order, so a workload driven through either produces the same
 * trace; only the host-time cost differs.
 */

#ifndef HOWSIM_TESTS_ORACLE_EVENT_HEAP_HH
#define HOWSIM_TESTS_ORACLE_EVENT_HEAP_HH

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/action.hh"
#include "sim/logging.hh"
#include "sim/sched.hh"
#include "sim/ticks.hh"

namespace howsim::oracle
{

/** Binary heap of event keys; see the file comment. */
class EventHeap
{
  public:
    void
    push(sim::SchedEntry entry)
    {
        heap.push_back(entry);
        std::push_heap(heap.begin(), heap.end(), sim::SchedAfter{});
    }

    bool empty() const { return heap.empty(); }

    std::size_t size() const { return heap.size(); }

    /** Tick of the earliest pending entry. @pre !empty(). */
    sim::Tick minTick() const { return heap.front().when; }

    /** Remove and return the earliest key. @pre !empty(). */
    sim::SchedEntry
    pop()
    {
        std::pop_heap(heap.begin(), heap.end(), sim::SchedAfter{});
        sim::SchedEntry entry = heap.back();
        heap.pop_back();
        return entry;
    }

    void reserve(std::size_t n) { heap.reserve(n); }

  private:
    std::vector<sim::SchedEntry> heap;
};

/** sim::EventQueue's interface over an EventHeap. */
class HeapQueue
{
  public:
    using Action = sim::InlineAction;

    /** A popped event: its tick and its action, callable as one. */
    struct Popped
    {
        sim::Tick when;
        Action action;

        void operator()() { action(); }
    };

    void
    schedule(sim::Tick when, Action &&action)
    {
        heap.push({when, nextSeq++, park(std::move(action))});
    }

    void
    schedule(sim::Tick when, std::coroutine_handle<> h)
    {
        schedule(when, Action(h));
    }

    /** Schedule with a caller-chosen sequence number. */
    void
    scheduleWithSeq(sim::Tick when, std::uint64_t seq, Action &&action)
    {
        heap.push({when, seq, park(std::move(action))});
    }

    bool empty() const { return heap.empty(); }

    std::size_t size() const { return heap.size(); }

    /** Time of the earliest pending event. @pre !empty(). */
    sim::Tick nextTick() const { return heap.minTick(); }

    /** Remove and return the earliest event. @pre !empty(). */
    Popped
    pop()
    {
        sim::SchedEntry key = heap.pop();
        auto slot = static_cast<std::uint32_t>(key.ref >> 1);
        freeSlots.push_back(slot);
        return {key.when, std::move(pool[slot])};
    }

    void
    reserve(std::size_t n)
    {
        heap.reserve(n);
        pool.reserve(n);
        freeSlots.reserve(n);
    }

    std::uint64_t scheduledCount() const { return nextSeq; }

  private:
    std::uint64_t
    park(Action &&action)
    {
        std::uint32_t slot;
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
            pool[slot] = std::move(action);
        } else {
            if (pool.size() == UINT32_MAX)
                panic("HeapQueue: more than %u pending events",
                      UINT32_MAX);
            slot = static_cast<std::uint32_t>(pool.size());
            pool.push_back(std::move(action));
        }
        return std::uint64_t{slot} << 1 | 1;
    }

    EventHeap heap;
    std::vector<Action> pool;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
};

} // namespace howsim::oracle

#endif // HOWSIM_TESTS_ORACLE_EVENT_HEAP_HH
