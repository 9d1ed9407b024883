/**
 * @file
 * Basic kernel awaitables: delays, yields, and one-shot triggers.
 */

#ifndef HOWSIM_SIM_AWAITABLES_HH
#define HOWSIM_SIM_AWAITABLES_HH

#include <coroutine>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::sim
{

/** Awaitable that resumes the coroutine @p delay ticks later. */
struct Delay
{
    Tick amount;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        Simulator *s = Simulator::current();
        if (!s)
            panic("delay awaited outside a simulation");
        s->scheduleIn(amount, h);
    }

    void await_resume() const noexcept {}
};

/** Suspend the current coroutine for @p t ticks. */
inline Delay
delay(Tick t)
{
    return Delay{t};
}

/**
 * Yield to the event queue: resume at the same tick, after all events
 * already scheduled for this tick.
 */
inline Delay
yield()
{
    return Delay{0};
}

/**
 * One-shot condition variable. Coroutines wait() until some other
 * party calls fire(); waiters queued after the trigger has fired do
 * not block. reset() re-arms the trigger.
 *
 * Almost every trigger has a single waiter (a request's completion, a
 * handshake's ack, a service loop's doorbell), so the first waiter is
 * stored inline and only later ones go to a vector: a one-waiter
 * trigger never allocates. Waiters wake in the order they waited.
 */
class Trigger
{
  public:
    /** Fire the trigger, waking all current waiters at this tick. */
    void
    fire()
    {
        if (firedFlag)
            return;
        firedFlag = true;
        Simulator *s = Simulator::current();
        if (!s)
            panic("Trigger fired outside a simulation");
        if (!first)
            return;
        s->scheduleAt(s->now(), first);
        first = nullptr;
        for (auto h : more)
            s->scheduleAt(s->now(), h);
        more.clear();
    }

    /** True once fire() has been called (and not reset since). */
    bool fired() const { return firedFlag; }

    /** Re-arm the trigger. @pre no coroutine is currently waiting. */
    void
    reset()
    {
        if (first)
            panic("Trigger::reset with coroutines still waiting");
        firedFlag = false;
    }

    struct Wait
    {
        Trigger *trig;

        bool await_ready() const noexcept { return trig->firedFlag; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            if (!trig->first)
                trig->first = h;
            else
                trig->more.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    /** Awaitable that completes when the trigger fires. */
    Wait wait() { return Wait{this}; }

  private:
    bool firedFlag = false;
    std::coroutine_handle<> first; //!< earliest waiter, if any
    std::vector<std::coroutine_handle<>> more; //!< the rest, in order
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_AWAITABLES_HH
