#include "sim/simulator.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::sim
{

namespace
{

thread_local Simulator *currentSim = nullptr;

/**
 * The partition executing on this thread during a parallel run: which
 * partition it is, and where its queue and clock live. Installed by
 * partitionLoop() so that scheduleAt()/now()/spawn() called from
 * within an event route to the executing partition without crossing
 * threads. Null on threads not running a partition (including the
 * main thread outside run()), where the serial members are correct.
 */
struct PdesCtx
{
    Simulator *sim;
    int part;
    EventQueue *q;
    Tick *clock;
};

thread_local PdesCtx *tlsPdesCtx = nullptr;

/**
 * Accumulated once per Simulator at destruction (never per event), so
 * the counter costs nothing on the event-loop hot path.
 */
std::atomic<std::uint64_t> allSimulatorEvents{0};

std::uint64_t
elapsedNanos(std::chrono::steady_clock::time_point since)
{
    auto dt = std::chrono::steady_clock::now() - since;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
            .count());
}

} // namespace

std::uint64_t
totalEventsExecuted()
{
    return allSimulatorEvents.load(std::memory_order_relaxed);
}

/**
 * Parallel-DES state: one Part per partition (partition 0 borrows the
 * simulator's own queue and clock; the rest own theirs), the window
 * barrier, and the current window. Window state is only written by
 * the boundary callback, which runs exclusively inside the barrier,
 * and the barrier's acquire/release ordering publishes it to every
 * partition's next window.
 */
struct Simulator::Pdes
{
    struct Part
    {
        std::unique_ptr<EventQueue> owned; //!< null for partition 0
        EventQueue *q = nullptr;
        Tick localClock = 0;
        Tick *clock = nullptr;
        /** Frame/capture storage for events run on this partition. */
        Arena arena;
        /** Cross-partition events awaiting the window boundary. */
        std::vector<CrossEntry> outbox;
        std::uint64_t outSeq = 0;
        std::uint64_t executedRun = 0;
        Tick lastTick = 0;
        std::atomic<std::uint64_t> stallNanos{0};
        /**
         * executedRun published for cross-thread readers (the obs
         * probes sample from partition 0). Stored by the owning
         * thread once per window, so the hot drain loop keeps its
         * plain counter.
         */
        std::atomic<std::uint64_t> executedPub{0};
    };

    Pdes(Simulator &s, int n) : barrier(n)
    {
        parts.reserve(static_cast<std::size_t>(n));
        for (int p = 0; p < n; ++p) {
            auto part = std::make_unique<Part>();
            if (p == 0) {
                part->q = &s.queue;
                part->clock = &s.currentTick;
            } else {
                part->owned = std::make_unique<EventQueue>();
                part->q = part->owned.get();
                part->clock = &part->localClock;
            }
            parts.push_back(std::move(part));
        }
        stats.partitions = n;
        stats.executedPerPartition.assign(
            static_cast<std::size_t>(n), 0);
        stats.stallNanosPerPartition.assign(
            static_cast<std::size_t>(n), 0);
    }

    int
    nparts() const
    {
        return static_cast<int>(parts.size());
    }

    std::uint64_t
    stallSum() const
    {
        std::uint64_t sum = 0;
        for (const auto &part : parts)
            sum += part->stallNanos.load(std::memory_order_relaxed);
        return sum;
    }

    Tick lookahead = maxTick;
    WindowBarrier barrier;
    std::vector<std::unique_ptr<Part>> parts;
    Tick winStart = 0;
    Tick winLast = 0; //!< last tick executed this window (inclusive)
    bool done = false;
    /** Exceptions that escaped an event action on some partition. */
    std::vector<std::exception_ptr> execErrors;
    PdesStats stats;
    /** Guards the process registry when partitions spawn/reap. */
    std::mutex procMutex;
    std::vector<CrossEntry> merge; //!< boundary scratch
};

Simulator::Simulator(int pdesPartitions)
{
    checkEnvNamesOnce();
    if (pdesPartitions < 1 || pdesPartitions > maxPdesPartitions) {
        fatal("Simulator: partition count %d out of range 1..%d",
              pdesPartitions, maxPdesPartitions);
    }
    previous = currentSim;
    currentSim = this;
    if (pdesPartitions > 1)
        pdes = std::make_unique<Pdes>(*this, pdesPartitions);
    obsSession = obs::session();
    if (obsSession) {
        obsPrevClock = obsSession->bindClock(&currentTick);
        // Scheduler occupancy probes: overall depth, plus the ladder
        // tiers (drain window / rung count / bucketed events /
        // far-future overflow).
        obs::Timeline &timeline = obsSession->timeline();
        timeline.probe(
            "sim.queue_depth",
            [this] { return static_cast<double>(queue.size()); },
            this);
        timeline.probe(
            "sim.sched.bottom",
            [this] {
                return static_cast<double>(
                    queue.ladderOccupancy().bottom);
            },
            this);
        timeline.probe(
            "sim.sched.rungs",
            [this] {
                return static_cast<double>(
                    queue.ladderOccupancy().rungs);
            },
            this);
        timeline.probe(
            "sim.sched.rung_events",
            [this] {
                return static_cast<double>(
                    queue.ladderOccupancy().rungEvents);
            },
            this);
        timeline.probe(
            "sim.sched.top",
            [this] {
                return static_cast<double>(queue.ladderOccupancy().top);
            },
            this);
        if (pdes) {
            // Window/mailbox counters are written only inside the
            // barrier, which the sampling thread (partition 0) also
            // passes through, so these reads are ordered; stall
            // counters are atomics.
            timeline.probe(
                "sim.pdes.windows",
                [this] {
                    return static_cast<double>(pdes->stats.windows);
                },
                this);
            timeline.probe(
                "sim.pdes.mailbox",
                [this] {
                    return static_cast<double>(
                        pdes->stats.mailboxEvents);
                },
                this);
            timeline.probe(
                "sim.pdes.stall_ns",
                [this] {
                    return static_cast<double>(pdes->stallSum());
                },
                this);
            // Per-partition skew probes: event counts and stall time
            // for each partition, so one hot domain is visible in
            // traces as its peers stalling. Counters are published
            // once per window (executedPub) or atomic (stallNanos).
            for (int p = 0; p < pdes->nparts(); ++p) {
                auto idx = static_cast<std::size_t>(p);
                timeline.probe(
                    strprintf("sim.pdes.part.%d.events", p),
                    [this, idx] {
                        return static_cast<double>(
                            pdes->stats.executedPerPartition[idx]
                            + pdes->parts[idx]->executedPub.load(
                                std::memory_order_relaxed));
                    },
                    this);
                timeline.probe(
                    strprintf("sim.pdes.part.%d.stall_ns", p),
                    [this, idx] {
                        return static_cast<double>(
                            pdes->parts[idx]->stallNanos.load(
                                std::memory_order_relaxed));
                    },
                    this);
            }
        }
    }
}

Simulator::~Simulator()
{
    // Drop the occupancy probes while the queue is still alive, but
    // only if the session we registered with is still installed.
    if (obsSession && obs::session() == obsSession)
        obsSession->timeline().dropProbes(this);
    // Destroy processes before restoring the current-simulator
    // pointer: process frames may hold awaiter objects whose
    // destructors unlink themselves from channels/resources.
    processes.clear();
    if (obsSession)
        obsSession->bindClock(obsPrevClock);
    currentSim = previous;
    allSimulatorEvents.fetch_add(executed, std::memory_order_relaxed);
}

Simulator *
Simulator::current()
{
    return currentSim;
}

Tick
Simulator::pdesNow() const
{
    const PdesCtx *c = tlsPdesCtx;
    return (c && c->sim == this) ? *c->clock : currentTick;
}

void
Simulator::pdesSchedule(Tick when, EventQueue::Action action,
                        bool validate)
{
    PdesCtx *c = tlsPdesCtx;
    if (c && c->sim == this) {
        if (validate && when < *c->clock) {
            panic("scheduleAt: tick %llu is in the past (now %llu on "
                  "partition %d)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(*c->clock), c->part);
        }
        c->q->schedule(when, std::move(action));
        return;
    }
    if (validate && when < currentTick) {
        panic("scheduleAt: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    }
    queue.schedule(when, std::move(action));
}

void
Simulator::scheduleAt(Tick when, EventQueue::Action action)
{
    if (pdes) {
        pdesSchedule(when, std::move(action), true);
        return;
    }
    if (when < currentTick)
        panic("scheduleAt: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    queue.schedule(when, std::move(action));
}

void
Simulator::scheduleIn(Tick delay, EventQueue::Action action)
{
    if (pdes) {
        pdesSchedule(pdesNow() + delay, std::move(action), false);
        return;
    }
    queue.schedule(currentTick + delay, std::move(action));
}

void
Simulator::scheduleAt(Tick when, std::coroutine_handle<> h)
{
    scheduleAt(when, EventQueue::Action(h));
}

void
Simulator::scheduleIn(Tick delay, std::coroutine_handle<> h)
{
    if (pdes) {
        pdesSchedule(pdesNow() + delay, EventQueue::Action(h), false);
        return;
    }
    queue.schedule(currentTick + delay, h);
}

void
Simulator::postCross(int partition, Tick when,
                     EventQueue::Action action)
{
    if (!pdes) {
        scheduleAt(when, std::move(action));
        return;
    }
    Pdes &P = *pdes;
    if (partition < 0 || partition >= P.nparts()) {
        panic("postCross: partition %d out of range (have %d)",
              partition, P.nparts());
    }
    PdesCtx *c = tlsPdesCtx;
    if (c && c->sim == this && c->part != partition) {
        // Park in the executing partition's outbox; the window
        // boundary applies it in (tick, seq, partition) order.
        Pdes::Part &src = *P.parts[static_cast<std::size_t>(c->part)];
        src.outbox.push_back(CrossEntry{when, src.outSeq++, c->part,
                                        partition,
                                        std::move(action)});
        return;
    }
    if (c && c->sim == this && when < *c->clock) {
        panic("postCross: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(*c->clock));
    }
    P.parts[static_cast<std::size_t>(partition)]->q->schedule(
        when, std::move(action));
}

void
Simulator::postKeyed(int partition, Tick when, std::uint64_t key,
                     EventQueue::Action action)
{
    if (!(key & kKeyedSeqBand)) {
        panic("postKeyed: key %llu is outside the keyed band "
              "(allocate keys from Simulator::allocKeyStream())",
              static_cast<unsigned long long>(key));
    }
    if (!pdes) {
        if (when < currentTick) {
            panic("postKeyed: tick %llu is in the past (now %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(currentTick));
        }
        queue.scheduleWithSeq(when, key, std::move(action));
        return;
    }
    Pdes &P = *pdes;
    if (partition < 0 || partition >= P.nparts()) {
        panic("postKeyed: partition %d out of range (have %d)",
              partition, P.nparts());
    }
    PdesCtx *c = tlsPdesCtx;
    if (c && c->sim == this && c->part != partition) {
        // Park in the executing partition's outbox with the key as
        // the entry's seq; the boundary keeps it through the merge.
        Pdes::Part &src = *P.parts[static_cast<std::size_t>(c->part)];
        src.outbox.push_back(
            CrossEntry{when, key, c->part, partition,
                       std::move(action)});
        return;
    }
    if (c && c->sim == this && when < *c->clock) {
        panic("postKeyed: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(*c->clock));
    }
    P.parts[static_cast<std::size_t>(partition)]->q->scheduleWithSeq(
        when, key, std::move(action));
}

int
Simulator::partitions() const
{
    return pdes ? pdes->nparts() : 1;
}

int
Simulator::currentPartition() const
{
    const PdesCtx *c = tlsPdesCtx;
    return (c && c->sim == this) ? c->part : 0;
}

void
Simulator::setLookahead(Tick la)
{
    if (!pdes)
        return;
    if (la == 0)
        panic("setLookahead: lookahead must be positive (a zero-"
              "latency edge cannot be cut; co-locate its endpoints)");
    pdes->lookahead = la;
}

Tick
Simulator::lookahead() const
{
    return pdes ? pdes->lookahead : maxTick;
}

PdesStats
Simulator::pdesStats() const
{
    if (!pdes)
        return PdesStats{};
    PdesStats out = pdes->stats;
    out.stallNanos = pdes->stallSum();
    for (std::size_t p = 0; p < pdes->parts.size(); ++p) {
        out.stallNanosPerPartition[p]
            = pdes->parts[p]->stallNanos.load(
                std::memory_order_relaxed);
    }
    return out;
}

ProcessRef
Simulator::spawn(Coro<void> body, std::string name)
{
    return spawnImpl(std::move(body), std::move(name), false, -1);
}

ProcessRef
Simulator::spawnDetached(Coro<void> body, std::string name)
{
    return spawnImpl(std::move(body), std::move(name), true, -1);
}

ProcessRef
Simulator::spawnOn(int partition, Coro<void> body, std::string name)
{
    if (pdes && (partition < 0 || partition >= pdes->nparts())) {
        panic("spawnOn: partition %d out of range (have %d)",
              partition, pdes->nparts());
    }
    return spawnImpl(std::move(body), std::move(name), false,
                     pdes ? partition : -1);
}

ProcessRef
Simulator::spawnImpl(Coro<void> body, std::string name, bool detached,
                     int partition)
{
    if (!body.valid())
        panic("spawn of an empty Coro");

    // Resolve the home partition: an executing partition homes its
    // children locally (their frames and queues are thread-local);
    // outside run() the caller picks, defaulting to partition 0.
    int home = 0;
    PdesCtx *c = tlsPdesCtx;
    bool inPart = pdes && c && c->sim == this;
    if (inPart)
        home = c->part;
    if (partition >= 0) {
        if (inPart && partition != c->part) {
            panic("spawnOn: cannot home a process onto partition %d "
                  "from inside partition %d (spawn before run(), or "
                  "hand off with postCross())",
                  partition, c->part);
        }
        home = partition;
    }

    auto proc = std::shared_ptr<Process>(
        new Process(*this, std::move(body), std::move(name)));
    proc->detached = detached;
    if (pdes) {
        std::lock_guard<std::mutex> lock(pdes->procMutex);
        processes.emplace(proc.get(), proc);
    } else {
        processes.emplace(proc.get(), proc);
    }
    Process *raw = proc.get();
    Tick t = now();
    // Trace process lifetimes as async spans. Detached processes are
    // high-volume (per-frame forwards, isends), so they only appear
    // at fine detail. The obs session is single-threaded, so only
    // partition-0 processes are traced under parallel runs.
    if (obsSession && home == 0 && (!detached || obsSession->fine())) {
        raw->obsSpanId = obsSession->trace().asyncBegin(
            "process", raw->procName, t);
    }
    raw->body.promise().onDone = [raw] { raw->onComplete(); };
    // Start the body at the current tick, after already-queued events.
    if (pdes) {
        pdes->parts[static_cast<std::size_t>(home)]->q->schedule(
            t, [raw] { raw->body.resume(); });
    } else {
        scheduleAt(t, [raw] { raw->body.resume(); });
    }
    return proc;
}

void
Simulator::reap(Process *proc)
{
    std::optional<std::lock_guard<std::mutex>> lock;
    if (pdes)
        lock.emplace(pdes->procMutex);
    auto it = processes.find(proc);
    if (it == processes.end())
        return;
    if (proc->error && !proc->errorObserved) {
        proc->errorObserved = true;
        detachedErrors.push_back(proc->error);
    }
    processes.erase(it);
}

Tick
Simulator::run(Tick until)
{
    if (pdes)
        return runParallel(until);
    Simulator *outer = currentSim;
    currentSim = this;
    if (!obsSession) {
        // The original tight loop: with observability off, the hot
        // path is exactly what it was before obs existed.
        while (!queue.empty() && queue.nextTick() <= until) {
            auto event = queue.pop();
            currentTick = event.when;
            ++executed;
            event.action();
        }
    } else {
        obs::Timeline &timeline = obsSession->timeline();
        while (!queue.empty()) {
            Tick t = queue.nextTick();
            if (t > until)
                break;
            currentTick = t;
            timeline.maybeSample(t);
            auto event = queue.pop();
            ++executed;
            event.action();
        }
        obsSession->metrics()
            .gauge("sim.events_executed")
            .set(static_cast<double>(executed));
        obsSession->metrics()
            .gauge("sim.final_tick")
            .set(static_cast<double>(currentTick));
    }
    if (until != maxTick && until > currentTick)
        currentTick = until;
    currentSim = outer;
    if (!detachedErrors.empty()) {
        auto err = detachedErrors.front();
        detachedErrors.clear();
        std::rethrow_exception(err);
    }
    for (const auto &[raw, proc] : processes) {
        if (proc->error && !proc->errorObserved) {
            proc->errorObserved = true;
            std::rethrow_exception(proc->error);
        }
    }
    return currentTick;
}

/**
 * One partition's side of the windowed loop: drain the local queue up
 * to the window end, then meet the others at the barrier, whose last
 * arriver merges mailboxes and opens the next window. Partition 0
 * runs on the calling thread (keeping the thread-local obs session
 * and fault scope working); the rest install their identity and
 * arena for the duration.
 */
void
Simulator::partitionLoop(int p, Tick until)
{
    Pdes &P = *pdes;
    Pdes::Part &part = *P.parts[static_cast<std::size_t>(p)];
    PdesCtx ctx{this, p, part.q, part.clock};
    PdesCtx *prevCtx = tlsPdesCtx;
    tlsPdesCtx = &ctx;
    Simulator *prevSim = currentSim;
    std::optional<ArenaScope> scope;
    if (p != 0) {
        currentSim = this;
        scope.emplace(&part.arena);
    }
    obs::Timeline *timeline =
        (p == 0 && obsSession) ? &obsSession->timeline() : nullptr;
    for (;;) {
        EventQueue &q = *part.q;
        try {
            while (!q.empty()) {
                Tick t = q.nextTick();
                if (t > P.winLast)
                    break;
                *part.clock = t;
                part.lastTick = t;
                if (timeline)
                    timeline->maybeSample(t);
                auto event = q.pop();
                ++part.executedRun;
                event.action();
            }
        } catch (...) {
            // An exception escaped an event action (process bodies
            // capture theirs — this is a scheduled-callback throw).
            // Record it and let the boundary wind the run down.
            std::lock_guard<std::mutex> lock(P.procMutex);
            P.execErrors.push_back(std::current_exception());
        }
        part.executedPub.store(part.executedRun,
                               std::memory_order_relaxed);
        auto waitStart = std::chrono::steady_clock::now();
        bool ranBoundary = P.barrier.arriveAndWait(
            [this, until] { windowBoundary(until); });
        if (!ranBoundary) {
            part.stallNanos.fetch_add(elapsedNanos(waitStart),
                                      std::memory_order_relaxed);
        }
        if (P.done)
            break;
    }
    tlsPdesCtx = prevCtx;
    if (p != 0)
        currentSim = prevSim;
}

/**
 * Window boundary, run exclusively by the barrier's last arriver:
 * apply every outbox in (tick, seq, partition) order, then open the
 * next window at the global minimum pending tick, or declare the run
 * done. Also the conservative-correctness checkpoint: an outbox
 * entry due inside the window just executed means the configured
 * lookahead overstated the real cross-partition latency, which is an
 * unrecoverable model bug.
 */
void
Simulator::windowBoundary(Tick until)
{
    Pdes &P = *pdes;
    std::vector<CrossEntry> &m = P.merge;
    m.clear();
    for (auto &part : P.parts) {
        for (CrossEntry &e : part->outbox)
            m.push_back(std::move(e));
        part->outbox.clear();
    }
    if (!m.empty()) {
        std::sort(m.begin(), m.end(), crossEntryBefore);
        for (CrossEntry &e : m) {
            if (e.when <= P.winLast) {
                panic("pdes: lookahead violation — partition %d "
                      "posted an event for tick %llu inside the "
                      "window ending at %llu (lookahead %llu too "
                      "large for the real cross-partition latency)",
                      e.srcPart,
                      static_cast<unsigned long long>(e.when),
                      static_cast<unsigned long long>(P.winLast),
                      static_cast<unsigned long long>(P.lookahead));
            }
            EventQueue *tq
                = P.parts[static_cast<std::size_t>(e.target)]->q;
            if (e.seq & kKeyedSeqBand) {
                // Keyed entries keep their explicit seq so same-tick
                // order matches the serial schedule exactly.
                tq->scheduleWithSeq(e.when, e.seq,
                                    std::move(e.action));
            } else {
                tq->schedule(e.when, std::move(e.action));
            }
        }
        P.stats.mailboxEvents += m.size();
        m.clear();
    }
    if (!P.execErrors.empty()) {
        P.done = true;
        return;
    }
    Tick next = maxTick;
    bool any = false;
    for (auto &part : P.parts) {
        if (part->q->empty())
            continue;
        Tick t = part->q->nextTick();
        if (!any || t < next)
            next = t;
        any = true;
    }
    if (!any || next > until) {
        P.done = true;
        return;
    }
    P.winStart = next;
    if (P.lookahead == maxTick) {
        // No cross-partition edges: one window covers the run, and
        // the loop below is the serial loop with extra queues.
        P.winLast = until;
    } else {
        Tick span = P.lookahead - 1;
        Tick end = next > maxTick - span ? maxTick : next + span;
        P.winLast = end < until ? end : until;
    }
    P.done = false;
    ++P.stats.windows;
}

Tick
Simulator::runParallel(Tick until)
{
    Pdes &P = *pdes;
    auto wallStart = std::chrono::steady_clock::now();
    Simulator *outer = currentSim;
    currentSim = this;

    for (auto &part : P.parts) {
        part->executedRun = 0;
        part->executedPub.store(0, std::memory_order_relaxed);
        part->lastTick = 0;
    }
    P.execErrors.clear();
    P.winLast = 0;
    windowBoundary(until);
    if (!P.done) {
        std::vector<std::thread> workers;
        workers.reserve(P.parts.size() - 1);
        for (int p = 1; p < P.nparts(); ++p) {
            workers.emplace_back(
                [this, p, until] { partitionLoop(p, until); });
        }
        partitionLoop(0, until);
        for (std::thread &w : workers)
            w.join();
    }

    Tick last = currentTick;
    std::uint64_t ran = 0;
    for (std::size_t p = 0; p < P.parts.size(); ++p) {
        Pdes::Part &part = *P.parts[p];
        ran += part.executedRun;
        P.stats.executedPerPartition[p] += part.executedRun;
        if (part.executedRun && part.lastTick > last)
            last = part.lastTick;
    }
    executed += ran;
    currentTick = last;
    P.stats.wallNanos += elapsedNanos(wallStart);
    if (obsSession) {
        obsSession->metrics()
            .gauge("sim.events_executed")
            .set(static_cast<double>(executed));
        obsSession->metrics()
            .gauge("sim.final_tick")
            .set(static_cast<double>(currentTick));
        obsSession->metrics()
            .gauge("sim.pdes.partitions")
            .set(static_cast<double>(P.nparts()));
    }
    if (until != maxTick && until > currentTick)
        currentTick = until;
    currentSim = outer;
    if (!P.execErrors.empty())
        std::rethrow_exception(P.execErrors.front());
    if (!detachedErrors.empty()) {
        auto err = detachedErrors.front();
        detachedErrors.clear();
        std::rethrow_exception(err);
    }
    for (const auto &[raw, proc] : processes) {
        if (proc->error && !proc->errorObserved) {
            proc->errorObserved = true;
            std::rethrow_exception(proc->error);
        }
    }
    return currentTick;
}

Process::Process(Simulator &s, Coro<void> b, std::string n)
    : owner(s), body(std::move(b)), procName(std::move(n))
{
}

Process::~Process() = default;

void
Process::onComplete()
{
    doneFlag = true;
    error = body.promise().exception;
    if (obsSpanId) {
        owner.obsSession->trace().asyncEnd("process", procName,
                                           obsSpanId, owner.now());
    }
    for (auto h : joiners)
        owner.scheduleAt(owner.now(), h);
    joiners.clear();
    if (detached) {
        // Reclaim after the current resume() unwinds; any holder of
        // the ProcessRef keeps the handle (not the frame) alive.
        Process *self = this;
        owner.scheduleAt(owner.now(), [self] { self->owner.reap(self); });
    }
}

Coro<void>
joinAll(std::vector<ProcessRef> procs)
{
    for (auto &p : procs)
        co_await p->join();
}

} // namespace howsim::sim
