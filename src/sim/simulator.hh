/**
 * @file
 * The simulation executive: clock, event loop, and process registry.
 */

#ifndef HOWSIM_SIM_SIMULATOR_HH
#define HOWSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/arena.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/partition.hh"
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
 * Discrete-event simulation executive.
 *
 * Owns the clock and the event queue, and keeps every spawned
 * top-level process alive for the lifetime of the simulation. A
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
 * With more than one partition (the HOWSIM_PDES environment variable,
 * or the explicit constructor argument) the executive runs
 * conservative parallel DES: each partition drains its own event
 * queue and clock on its own thread — partition 0 on the calling
 * thread — inside synchronization windows sized by the lookahead (the
 * minimum cross-partition event latency, see PartitionGraph::plan).
 * Cross-partition events travel through per-source outboxes and are
 * applied at the window boundary in deterministic
 * (tick, seq, partition) order, so a parallel run's event order —
 * and therefore its stats and output — is reproducible, and
 * bit-identical to serial whenever every event stays in one
 * partition. Work is homed to a partition with spawnOn(); events
 * cross partitions with postCross(). See DESIGN.md §14.
 */
class Simulator
{
  public:
    /** Use the HOWSIM_PDES partition count. */
    Simulator() : Simulator(defaultPdesPartitions()) {}

    /**
     * Explicit partition count. @p pdesPartitions of 1 is the serial
     * executive; more engages the windowed parallel loop with that
     * many event queues.
     */
    explicit Simulator(int pdesPartitions);

    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Current simulated time. Inside a parallel run this is the
     * executing partition's clock; partitions only ever observe their
     * own (windows keep them within lookahead of each other).
     */
    Tick
    now() const
    {
        return pdes ? pdesNow() : currentTick;
    }

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
     * Start a fire-and-forget process whose resources are reclaimed
     * as soon as it completes (unless the caller retains the returned
     * handle). Use for high-volume short-lived activities such as
     * per-frame network forwarding. An exception escaping a detached
     * process is rethrown from run().
     */
    ProcessRef spawnDetached(Coro<void> body, std::string name = "proc");

    /**
     * Start a process homed to @p partition: its events drain on that
     * partition's thread. Under the serial executive this is spawn().
     * May be called outside run() or from the target partition
     * itself; joining a process from another partition is not
     * supported (the joiner list is unsynchronized by design — use
     * postCross() handshakes instead).
     */
    ProcessRef spawnOn(int partition, Coro<void> body,
                       std::string name = "proc");

    /**
     * Schedule @p action on @p partition's queue at absolute tick
     * @p when. From another partition the event is parked in this
     * partition's outbox and applied at the next window boundary;
     * conservative correctness requires @p when to be at least the
     * end of the current window — at least lookahead() past the
     * window start — and the boundary panics on a violation. Local
     * and serial calls are plain scheduleAt().
     */
    void postCross(int partition, Tick when, EventQueue::Action action);

    /**
     * Keyed postCross: like postCross(), but the event carries the
     * explicit sequence number @p key (from a KeyStream allocated
     * with allocKeyStream()) instead of drawing a fresh one from the
     * target queue. Because the (tick, key) pair is a property of the
     * posting entity, same-tick order is identical no matter how the
     * machine is partitioned — this is what makes the machines'
     * cross-device handshakes bit-identical between serial and any
     * HOWSIM_PDES setting (DESIGN.md §14). Serial and same-partition
     * calls schedule directly with the key; cross-partition calls
     * park in the outbox and keep the key through the merge.
     */
    void postKeyed(int partition, Tick when, std::uint64_t key,
                   EventQueue::Action action);

    /**
     * Allocate the next deterministic key stream. Must be called at
     * construction time (machine/task-runner setup, before run()), in
     * a fixed order independent of partitioning — stream identity is
     * part of the event order.
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

    /** Partition count (1 = serial executive). */
    int partitions() const;

    /** The partition executing on this thread (0 outside run()). */
    int currentPartition() const;

    /**
     * Set the synchronization window size for parallel runs, normally
     * from PartitionGraph::plan().lookahead. maxTick (the default)
     * means "no cross-partition edges": one window covers the whole
     * run. Ignored by the serial executive.
     */
    void setLookahead(Tick la);

    /** The current lookahead (maxTick under the serial executive). */
    Tick lookahead() const;

    /** Counters of the parallel runs so far (zeros when serial). */
    PdesStats pdesStats() const;

    /** Number of processes ever spawned. */
    std::size_t processCount() const { return processes.size(); }

    /**
     * The simulator currently inside run() on this thread, or the
     * most recently constructed one (so processes can be spawned
     * before run() starts). Null when no simulator exists.
     */
    static Simulator *current();

  private:
    friend class Process;

    struct Pdes;

    ProcessRef spawnImpl(Coro<void> body, std::string name,
                         bool detached, int partition);
    void reap(Process *proc);

    Tick pdesNow() const;
    void pdesSchedule(Tick when, EventQueue::Action action,
                      bool validate);
    Tick runParallel(Tick until);
    void partitionLoop(int part, Tick until);
    void windowBoundary(Tick until);

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
    std::vector<std::exception_ptr> detachedErrors;
    std::uint64_t executed = 0;
    std::uint64_t nextKeyStream = 0;
    Simulator *previous = nullptr;

    /** Parallel-DES state; null under the serial executive. */
    std::unique_ptr<Pdes> pdes;

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

    Process(Simulator &s, Coro<void> b, std::string n);

    void onComplete();

    Simulator &owner;
    Coro<void> body;
    std::string procName;
    std::uint64_t obsSpanId = 0; //!< async span; 0 = not traced
    bool detached = false;
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
