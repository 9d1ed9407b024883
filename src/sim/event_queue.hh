/**
 * @file
 * The discrete-event queue at the heart of the simulator — a thin
 * facade over the pluggable scheduler policies.
 *
 * Events are (tick, sequence, action) triples; the sequence number
 * breaks same-tick ties so that events scheduled for the same tick
 * execute in scheduling order, which keeps simulations
 * deterministic. The queue splits each event in two: its action is
 * parked in a slot pool (a vector of InlineActions plus a stack of
 * free slot indices), and a trivially copyable 24-byte key
 * {tick, seq, slot} goes to the container. An action therefore moves
 * once in and once out, however often its key is sifted, split or
 * spilled. Two interchangeable containers implement the ordering:
 *
 *  - EventHeap (event_heap.hh) — the reference binary heap,
 *    O(log n) per operation;
 *  - EventLadder (event_ladder.hh) — a ladder queue, amortized O(1)
 *    per operation and the default.
 *
 * Both drain in strict (tick, seq) order, so which policy runs is
 * invisible to the simulation: every figure and table is
 * bit-identical under either. The policy is chosen per queue at
 * construction — by the HOWSIM_SCHED environment variable for the
 * default constructor — and dispatch is a single predictable branch,
 * not a virtual call, so the hot path stays inlineable.
 */

#ifndef HOWSIM_SIM_EVENT_QUEUE_HH
#define HOWSIM_SIM_EVENT_QUEUE_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/action.hh"
#include "sim/event_heap.hh"
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

    /** Use the HOWSIM_SCHED policy (ladder unless overridden). */
    EventQueue() : EventQueue(defaultSchedPolicy()) {}

    explicit EventQueue(SchedPolicy policy) : pol(policy) {}

    /** Schedule @p action to run at absolute time @p when. */
    void
    schedule(Tick when, Action &&action)
    {
        push({when, nextSeq++, park(std::move(action))});
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
        if (pol == SchedPolicy::Ladder)
            ladder.markExplicitSeqs();
        push({when, seq, park(std::move(action))});
    }

    /** True when no events remain. */
    bool
    empty() const
    {
        return pol == SchedPolicy::Ladder ? ladder.empty()
                                          : heap.empty();
    }

    /** Number of pending events. */
    std::size_t
    size() const
    {
        return pol == SchedPolicy::Ladder ? ladder.size()
                                          : heap.size();
    }

    /**
     * Time of the earliest pending event. The ladder policy may
     * promote a bucket into its drain window here, hence not const.
     * @pre !empty().
     */
    Tick
    nextTick()
    {
        return pol == SchedPolicy::Ladder ? ladder.minTick()
                                          : heap.minTick();
    }

    /**
     * Remove and return the earliest pending event, with its tick.
     * @pre !empty().
     */
    Popped
    pop()
    {
        SchedEntry key =
            pol == SchedPolicy::Ladder ? ladder.pop() : heap.pop();
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
        if (pol == SchedPolicy::Ladder)
            ladder.reserve(n);
        else
            heap.reserve(n);
        pool.reserve(n);
        freeSlots.reserve(n);
    }

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return nextSeq; }

    /** The scheduler policy this queue was built with. */
    SchedPolicy policy() const { return pol; }

    /**
     * Ladder tier occupancy, for obs probes and tests. All zeros
     * under the heap policy.
     */
    EventLadder::Occupancy
    ladderOccupancy() const
    {
        return pol == SchedPolicy::Ladder ? ladder.occupancy()
                                          : EventLadder::Occupancy{};
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

    void
    push(SchedEntry key)
    {
        if (pol == SchedPolicy::Ladder)
            ladder.push(key);
        else
            heap.push(key);
    }

    SchedPolicy pol;
    EventHeap heap;
    EventLadder ladder;
    /** Parked actions; a slot is empty while on freeSlots. */
    std::vector<Action> pool;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_QUEUE_HH
