#include "sim/simulator.hh"

#include <atomic>
#include <utility>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::sim
{

namespace
{

thread_local Simulator *currentSim = nullptr;

/**
 * Accumulated once per Simulator at destruction (never per event), so
 * the counter costs nothing on the event-loop hot path.
 */
std::atomic<std::uint64_t> allSimulatorEvents{0};

} // namespace

std::uint64_t
totalEventsExecuted()
{
    return allSimulatorEvents.load(std::memory_order_relaxed);
}

Simulator::Simulator()
{
    detachedRing.prev = detachedRing.next = &detachedRing;
    checkEnvNamesOnce();
    previous = currentSim;
    currentSim = this;
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
    }
}

Simulator::~Simulator()
{
    // Drop the occupancy probes while the queue is still alive, but
    // only if the session we registered with is still installed.
    if (obsSession && obs::session() == obsSession)
        obsSession->timeline().dropProbes(this);
    // Destroy frames before restoring the current-simulator pointer:
    // they may hold awaiter objects whose destructors unlink
    // themselves from channels/resources. Detached frames still
    // suspended are owned by nobody else.
    while (detachedRing.next != &detachedRing) {
        detail::RingLink *link = detachedRing.next;
        detachedRing.next = link->next;
        auto &promise = static_cast<detail::Promise<void> &>(
            static_cast<detail::PromiseBase &>(*link));
        std::coroutine_handle<detail::Promise<void>>::from_promise(promise)
            .destroy();
    }
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

void
Simulator::scheduleAt(Tick when, EventQueue::Action action)
{
    if (when < currentTick)
        panic("scheduleAt: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    queue.schedule(when, std::move(action));
}

void
Simulator::scheduleIn(Tick delay, EventQueue::Action action)
{
    queue.schedule(currentTick + delay, std::move(action));
}

void
Simulator::scheduleAt(Tick when, std::coroutine_handle<> h)
{
    if (when < currentTick)
        panic("scheduleAt: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    queue.schedule(when, h);
}

void
Simulator::scheduleIn(Tick delay, std::coroutine_handle<> h)
{
    queue.schedule(currentTick + delay, h);
}

void
Simulator::postKeyed(Tick when, std::uint64_t key,
                     EventQueue::Action action)
{
    if (!(key & kKeyedSeqBand)) {
        panic("postKeyed: key %llu is outside the keyed band "
              "(allocate keys from Simulator::allocKeyStream())",
              static_cast<unsigned long long>(key));
    }
    if (when < currentTick) {
        panic("postKeyed: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    }
    queue.scheduleWithSeq(when, key, std::move(action));
}

ProcessRef
Simulator::spawn(Coro<void> body, std::string name)
{
    if (!body.valid())
        panic("spawn of an empty Coro");

    auto proc = std::shared_ptr<Process>(
        new Process(*this, std::move(body), std::move(name)));
    processes.emplace(proc.get(), proc);
    Process *raw = proc.get();
    Tick t = now();
    // Trace process lifetimes as async spans.
    if (obsSession) {
        raw->obsSpanId = obsSession->trace().asyncBegin(
            "process", raw->procName, t);
    }
    detail::Promise<void> &promise = raw->body.promise();
    promise.process = raw;
    // Start the body at the current tick, after already-queued events.
    std::coroutine_handle<> start =
        std::coroutine_handle<detail::Promise<void>>::from_promise(promise);
    scheduleAt(t, start);
    return proc;
}

void
Simulator::spawnDetached(Coro<void> body, std::string_view name)
{
    if (!body.valid())
        panic("spawn of an empty Coro");

    std::coroutine_handle<detail::Promise<void>> frame = body.release();
    detail::PromiseBase &promise = frame.promise();
    std::coroutine_handle<> h = frame;
    promise.prev = detachedRing.prev;
    promise.next = &detachedRing;
    detachedRing.prev->next = &promise;
    detachedRing.prev = &promise;
    Tick t = now();
    // Detached processes are high-volume (handshake legs, per-frame
    // forwards), so their spans only appear at fine detail.
    if (obsSession && obsSession->fine()) {
        std::string label(name);
        std::uint64_t id =
            obsSession->trace().asyncBegin("process", label, t);
        detachedSpans.emplace(h.address(),
                              DetachedSpan{id, std::move(label)});
    }
    scheduleAt(t, h);
}

void
Simulator::finishDetached(detail::PromiseBase &p, std::coroutine_handle<> h)
{
    p.prev->next = p.next;
    p.next->prev = p.prev;
    if (p.exception)
        detachedErrors.push_back(p.exception);
    if (!detachedSpans.empty()) {
        auto it = detachedSpans.find(h.address());
        if (it != detachedSpans.end()) {
            obsSession->trace().asyncEnd("process", it->second.name,
                                         it->second.id, now());
            detachedSpans.erase(it);
        }
    }
    h.destroy();
}

namespace detail
{

void
finishTopLevel(PromiseBase &p, std::coroutine_handle<> h) noexcept
{
    if (p.process) {
        p.process->onComplete();
        return;
    }
    Simulator *s = Simulator::current();
    if (!s)
        panic("detached process finished outside a simulation");
    s->finishDetached(p, h);
}

} // namespace detail

Tick
Simulator::run(Tick until)
{
    Simulator *outer = currentSim;
    currentSim = this;
    if (!obsSession) {
        // The original tight loop: with observability off, the hot
        // path is exactly what it was before obs existed.
        while (!queue.empty() && queue.nextTick() <= until) {
            ++executed;
            queue.runNext(currentTick);
        }
    } else {
        obs::Timeline &timeline = obsSession->timeline();
        while (!queue.empty()) {
            Tick t = queue.nextTick();
            if (t > until)
                break;
            currentTick = t;
            timeline.maybeSample(t);
            ++executed;
            queue.runNext(currentTick);
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
}

Coro<void>
joinAll(std::vector<ProcessRef> procs)
{
    for (auto &p : procs)
        co_await p->join();
}

} // namespace howsim::sim
