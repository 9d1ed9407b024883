/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (tick, sequence, action) triples; the sequence number
 * breaks same-tick ties so that events scheduled for the same tick
 * execute in scheduling order, which keeps simulations
 * deterministic. The queue splits each event in two: its action is
 * parked in a slot pool (a vector of InlineActions plus a stack of
 * free slot indices), and a trivially copyable 24-byte key
 * {tick, seq, slot} goes to the ladder queue (event_ladder.hh),
 * which orders keys in amortized O(1) per operation. An action
 * therefore moves once in and once out, however often its key is
 * sifted, split or spilled.
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
     * Equivalent to scheduling [h] { h.resume(); } — the handle is
     * stored in the action's inline buffer, so no allocation occurs.
     */
    void
    schedule(Tick when, std::coroutine_handle<> h)
    {
        schedule(when, Action(h));
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
     * Remove and return the earliest pending event, with its tick.
     * @pre !empty().
     */
    Popped
    pop()
    {
        SchedEntry key = ladder.pop();
        freeSlots.push_back(key.slot);
        return {key.when, std::move(pool[key.slot])};
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
    /** Move @p action into a free pool slot; return its index. */
    std::uint32_t
    park(Action &&action)
    {
        if (!freeSlots.empty()) {
            std::uint32_t slot = freeSlots.back();
            freeSlots.pop_back();
            pool[slot] = std::move(action);
            return slot;
        }
        if (pool.size() == UINT32_MAX)
            panic("EventQueue: more than %u pending events", UINT32_MAX);
        pool.push_back(std::move(action));
        return static_cast<std::uint32_t>(pool.size() - 1);
    }

    EventLadder ladder;
    /** Parked actions; a slot is empty while on freeSlots. */
    std::vector<Action> pool;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_QUEUE_HH
