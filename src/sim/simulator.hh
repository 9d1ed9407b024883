/**
 * @file
 * The simulation executive: clock, event loop, and process registry.
 */

#ifndef HOWSIM_SIM_SIMULATOR_HH
#define HOWSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/arena.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Session;
} // namespace howsim::obs

namespace howsim::sim
{

class Process;
using ProcessRef = std::shared_ptr<Process>;

/**
 * Sequence-number band for *keyed* events. Ordinary schedules draw
 * fresh sequence numbers from the queue's counter, so their same-tick
 * order is the order of the schedule calls. A keyed event instead
 * carries a sequence number from a KeyStream owned by the logical
 * entity that posts it (a disk, a link, a barrier), so its same-tick
 * order is fixed by (stream, counter) alone. The band bit keeps the
 * two populations ordered against each other: fresh counters never
 * reach 2^62, so at a given tick every ordinary event runs before
 * every keyed one. The machines' handshakes (DESIGN.md §14) are
 * timed and ordered this way, so every figure depends on it.
 */
constexpr std::uint64_t kKeyedSeqBand = std::uint64_t{1} << 62;

/**
 * Deterministic allocator of keyed sequence numbers for one logical
 * entity. Streams are handed out by Simulator::allocKeyStream() in
 * call order, so the assignment is identical across runs; each
 * stream is advanced only by its owning entity. Key layout:
 * band | stream << 36 | counter.
 */
class KeyStream
{
  public:
    KeyStream() = default;

    explicit KeyStream(std::uint64_t streamId)
        : base(kKeyedSeqBand | (streamId << counterBits))
    {
    }

    /** The next key; strictly increasing within the stream. */
    std::uint64_t next() { return base | counter++; }

    /** Bits reserved for the per-stream counter. */
    static constexpr unsigned counterBits = 36;

  private:
    std::uint64_t base = kKeyedSeqBand;
    std::uint64_t counter = 0;
};

/**
 * Discrete-event simulation executive.
 *
 * Owns the clock and the event queue, and keeps every spawn()ed
 * process alive for the lifetime of the simulation (a detached one
 * frees itself when it completes). A
 * thread-local "current simulator" is maintained while run() executes
 * so that awaitables (delays, channels, resources) can reach the
 * event queue without threading a pointer through every call.
 *
 * Coroutine frames and oversized action captures are carved from a
 * per-simulator Arena installed for the constructing thread, so a
 * simulation's thousands of short-lived frames recycle through
 * size-class free lists instead of the global heap and are released
 * wholesale when the simulator dies.
 *
 * Machines hand work between devices with keyed events
 * (postKeyed()), whose same-tick order is a property of the posting
 * entity rather than of the schedule site; see DESIGN.md §14.
 */
class Simulator
{
  public:
    Simulator();

    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /** Schedule an action at an absolute tick (>= now). */
    void scheduleAt(Tick when, EventQueue::Action action);

    /** Schedule an action @p delay ticks from now. */
    void scheduleIn(Tick delay, EventQueue::Action action);

    /**
     * Fast path: schedule the resumption of @p h at an absolute tick.
     * The handle travels in the event's inline buffer — scheduling a
     * coroutine resumption allocates nothing.
     */
    void scheduleAt(Tick when, std::coroutine_handle<> h);

    /** Fast path: resume @p h @p delay ticks from now. */
    void scheduleIn(Tick delay, std::coroutine_handle<> h);

    /**
     * Start a top-level process at the current time. The returned
     * handle can be joined from other processes; the Simulator keeps
     * the process alive until it is destroyed.
     */
    ProcessRef spawn(Coro<void> body, std::string name = "proc");

    /**
     * Start a fire-and-forget process at the current time. Use for
     * high-volume short-lived activities such as handshake legs and
     * per-frame network forwarding: no Process exists, and the frame
     * destroys itself when it completes. Until then it sits on an
     * intrusive ring of live detached frames, so ~Simulator destroys
     * any that are still suspended. An exception escaping a detached
     * process is rethrown from run(). @p name labels the process span
     * of a fine-detail trace.
     */
    void spawnDetached(Coro<void> body, std::string_view name = "proc");

    /**
     * Schedule @p action at absolute tick @p when with the explicit
     * sequence number @p key (from a KeyStream allocated with
     * allocKeyStream()) instead of a fresh one from the queue's
     * counter. The (tick, key) pair is a property of the posting
     * entity, so same-tick order does not depend on where the post
     * was made — this is how the machines' cross-device handshakes
     * order their legs (DESIGN.md §14).
     */
    void postKeyed(Tick when, std::uint64_t key,
                   EventQueue::Action action);

    /**
     * Allocate the next deterministic key stream. Must be called at
     * construction time (machine/task-runner setup, before run()), in
     * a fixed order — stream identity is part of the event order.
     */
    KeyStream allocKeyStream() { return KeyStream(nextKeyStream++); }

    /**
     * Run until the event queue drains or the clock passes @p until.
     * Returns the final simulated time. Rethrows the first exception
     * escaping a process that no joiner observed.
     */
    Tick run(Tick until = maxTick);

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /**
     * The simulator currently inside run() on this thread, or the
     * most recently constructed one (so processes can be spawned
     * before run() starts). Null when no simulator exists.
     */
    static Simulator *current();

  private:
    friend class Process;
    friend void detail::finishTopLevel(detail::PromiseBase &p,
                                       std::coroutine_handle<> h) noexcept;

    /** A detached frame's trace span (fine-detail traces only). */
    struct DetachedSpan
    {
        std::uint64_t id;
        std::string name;
    };

    /** Unlink, report and destroy a completed detached frame. */
    void finishDetached(detail::PromiseBase &p, std::coroutine_handle<> h);

    Tick currentTick = 0;
    EventQueue queue;

    /**
     * Frame and action-capture storage for this simulator, installed
     * as the thread's allocation arena for the simulator's lifetime
     * (constructor through destructor, restoring the previous arena —
     * mirroring the current-simulator chain). Frames that outlive the
     * simulator (held ProcessRefs) stay valid: the arena's control
     * block is refcounted by its live blocks.
     */
    Arena frameArena;
    ArenaScope arenaScope{&frameArena};

    std::unordered_map<Process *, ProcessRef> processes;
    /** Sentinel of the ring of live detached frames. */
    detail::RingLink detachedRing;
    /** Open detached-process spans by frame address (fine traces). */
    std::unordered_map<void *, DetachedSpan> detachedSpans;
    std::vector<std::exception_ptr> detachedErrors;
    std::uint64_t executed = 0;
    std::uint64_t nextKeyStream = 0;
    Simulator *previous = nullptr;

    /**
     * The thread's observability session captured at construction
     * (null when observability is off). When set, run() uses the
     * instrumented loop and the session's clock points at
     * currentTick; when null, run() is the original tight loop and
     * no obs code executes at all.
     */
    obs::Session *obsSession = nullptr;
    const Tick *obsPrevClock = nullptr;
};

/**
 * Handle to a spawned top-level process. Exposes completion state and
 * a join() awaitable. Created only by Simulator::spawn().
 */
class Process
{
  public:
    ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** True once the process body has finished (or thrown). */
    bool finished() const { return doneFlag; }

    /** The process name given at spawn time. */
    const std::string &name() const { return procName; }

    /** Awaitable that suspends until this process finishes. */
    struct Join
    {
        Process *proc;

        bool await_ready() const { return proc->doneFlag; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            proc->joiners.push_back(h);
        }

        void
        await_resume() const
        {
            if (proc->error) {
                proc->errorObserved = true;
                std::rethrow_exception(proc->error);
            }
        }
    };

    /** Suspend the awaiting coroutine until this process finishes. */
    Join join() { return Join{this}; }

  private:
    friend class Simulator;
    friend void detail::finishTopLevel(detail::PromiseBase &p,
                                       std::coroutine_handle<> h) noexcept;

    Process(Simulator &s, Coro<void> b, std::string n);

    void onComplete();

    Simulator &owner;
    Coro<void> body;
    std::string procName;
    std::uint64_t obsSpanId = 0; //!< async span; 0 = not traced
    bool doneFlag = false;
    bool errorObserved = false;
    std::exception_ptr error;
    std::vector<std::coroutine_handle<>> joiners;
};

/** Join every process in @p procs, in order. */
Coro<void> joinAll(std::vector<ProcessRef> procs);

/**
 * Events executed by every Simulator that has completed (been
 * destroyed) on any thread since process start. The benchmark harness
 * divides this by wall-clock time to report events/sec.
 */
std::uint64_t totalEventsExecuted();

} // namespace howsim::sim

#endif // HOWSIM_SIM_SIMULATOR_HH
