/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (tick, sequence, action) triples; the sequence number
 * breaks same-tick ties so that events scheduled for the same tick
 * execute in scheduling order, which keeps simulations
 * deterministic. The ladder queue (event_ladder.hh) orders trivially
 * copyable 24-byte keys {tick, seq, ref} in amortized O(1) per
 * operation. Most events only resume a coroutine, and for those `ref`
 * is the frame address itself: scheduling and running one touches
 * nothing but the key. Any other action is parked in a slot pool (a
 * vector of InlineActions plus a stack of free slot indices) and
 * `ref` is `slot << 1 | 1`, so such an action moves once in and once
 * out, however often its key is sifted, split or spilled.
 *
 * The ladder drains in strict (tick, seq) order, exactly as a binary
 * heap would; tests/oracle/event_heap.hh keeps that heap as the
 * reference the ladder is fuzzed against (DESIGN.md §11).
 */

#ifndef HOWSIM_SIM_EVENT_QUEUE_HH
#define HOWSIM_SIM_EVENT_QUEUE_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/action.hh"
#include "sim/event_ladder.hh"
#include "sim/logging.hh"
#include "sim/sched.hh"
#include "sim/ticks.hh"

namespace howsim::sim
{

/** Deterministic priority queue of timed actions. */
class EventQueue
{
  public:
    using Action = InlineAction;

    /** A popped event: its tick and its action, callable as one. */
    struct Popped
    {
        Tick when;
        Action action;

        void operator()() { action(); }
    };

    /** Schedule @p action to run at absolute time @p when. */
    void
    schedule(Tick when, Action &&action)
    {
        ladder.push({when, nextSeq++, park(std::move(action))});
    }

    /**
     * Fast path: schedule the resumption of @p h at time @p when.
     * Equivalent to scheduling [h] { h.resume(); }, but the frame
     * address rides in the key and the slot pool is never touched.
     */
    void
    schedule(Tick when, std::coroutine_handle<> h)
    {
        ladder.push({when, nextSeq++, handleRef(h)});
    }

    /**
     * Schedule with an explicit sequence number instead of the fresh
     * counter. This is the keyed-event entry point (DESIGN.md §14):
     * the caller supplies a KeyStream-allocated seq in the
     * kKeyedSeqBand so same-tick order is a property of the event,
     * not of which queue it was scheduled into. The fresh counter is
     * untouched — ordinary events keep their band (below 2^62) and
     * drain first at any shared tick.
     */
    void
    scheduleWithSeq(Tick when, std::uint64_t seq, Action &&action)
    {
        ladder.markExplicitSeqs();
        ladder.push({when, seq, park(std::move(action))});
    }

    /** True when no events remain. */
    bool empty() const { return ladder.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return ladder.size(); }

    /**
     * Time of the earliest pending event. The ladder may promote a
     * bucket into its drain window here, hence not const.
     * @pre !empty().
     */
    Tick nextTick() { return ladder.minTick(); }

    /**
     * Remove the earliest pending event, set @p clock to its tick and
     * run it: the simulator's event loop. @pre !empty().
     */
    void
    runNext(Tick &clock)
    {
        SchedEntry key = ladder.pop();
        clock = key.when;
        if (key.ref & 1)
            unpark(key.ref)();
        else
            frameOf(key.ref).resume();
    }

    /**
     * Remove and return the earliest pending event, with its tick, for
     * callers that hold the action before running it (tests and
     * benches). @pre !empty().
     */
    Popped
    pop()
    {
        SchedEntry key = ladder.pop();
        if (key.ref & 1)
            return {key.when, unpark(key.ref)};
        return {key.when, Action(frameOf(key.ref))};
    }

    /**
     * Pre-size the queue for @p n pending events: the container, the
     * action pool and the free-slot stack, so a queue that stays
     * within @p n pending events schedules without allocating.
     */
    void
    reserve(std::size_t n)
    {
        ladder.reserve(n);
        pool.reserve(n);
        freeSlots.reserve(n);
    }

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return nextSeq; }

    /** Ladder tier occupancy, for obs probes and tests. */
    EventLadder::Occupancy
    ladderOccupancy() const
    {
        return ladder.occupancy();
    }

  private:
    /** The key reference of a coroutine resumption: its address. */
    static std::uint64_t
    handleRef(std::coroutine_handle<> h)
    {
        auto ref = reinterpret_cast<std::uintptr_t>(h.address());
        if (ref & 1)
            panic("EventQueue: coroutine frame %p is not aligned",
                  h.address());
        return ref;
    }

    /** The coroutine behind a handle ref (low bit 0). */
    static std::coroutine_handle<>
    frameOf(std::uint64_t ref)
    {
        return std::coroutine_handle<>::from_address(
            reinterpret_cast<void *>(ref));
    }

    /** Move @p action into a free pool slot; return its key ref. */
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
                panic("EventQueue: more than %u pending actions",
                      UINT32_MAX);
            slot = static_cast<std::uint32_t>(pool.size());
            pool.push_back(std::move(action));
        }
        return std::uint64_t{slot} << 1 | 1;
    }

    /** Move the action behind @p ref out of the pool, freeing it. */
    Action
    unpark(std::uint64_t ref)
    {
        auto slot = static_cast<std::uint32_t>(ref >> 1);
        freeSlots.push_back(slot);
        return std::move(pool[slot]);
    }

    EventLadder ladder;
    /** Parked actions; a slot is empty while on freeSlots. */
    std::vector<Action> pool;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_QUEUE_HH
