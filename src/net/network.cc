#include "net/network.hh"

#include <algorithm>
#include <cstdlib>

#include "obs/obs.hh"
#include "sim/completion.hh"
#include "sim/logging.hh"

namespace howsim::net
{

Network::Network(sim::Simulator &s, int host_count, NetParams params)
    : simulator(s), netParams(params)
{
    if (host_count <= 0)
        panic("Network: host_count must be positive");
    if (netParams.hostsPerSwitch <= 0)
        panic("Network: hostsPerSwitch must be positive");

    obs::Session *session = obs::session();
    hosts.reserve(static_cast<std::size_t>(host_count));
    bus::BusParams link;
    link.channels = 1;
    link.channelRate = netParams.hostLinkRate;
    link.startup = 0; // latency handled per hop
    link.probeTimeline = session && session->fine();
    for (int hostIdx = 0; hostIdx < host_count; ++hostIdx) {
        // Per-instance names so each NIC gets its own utilization
        // counters ("net.h3.tx.bytes") when observability is on.
        // There are two NICs per host, so their occupancy timeline
        // probes are fine-detail only; the few shared uplinks keep
        // theirs at any detail (Figure 2's utilization story). The
        // formatted names exist only for that output, so the two
        // allocations per host are skipped when no session is active.
        Host h;
        link.name = session ? strprintf("net.h%d.tx", hostIdx)
                            : "net.tx";
        h.tx = std::make_unique<bus::Bus>(s, link);
        link.name = session ? strprintf("net.h%d.rx", hostIdx)
                            : "net.rx";
        h.rx = std::make_unique<bus::Bus>(s, link);
        hosts.push_back(std::move(h));
    }

    int nedges = (host_count + netParams.hostsPerSwitch - 1)
                 / netParams.hostsPerSwitch;
    edges.reserve(static_cast<std::size_t>(nedges));
    bus::BusParams up;
    up.channels = netParams.uplinksPerSwitch;
    up.channelRate = netParams.uplinkRate;
    up.startup = 0;
    for (int edgeIdx = 0; edgeIdx < nedges; ++edgeIdx) {
        Edge e;
        up.name = session ? strprintf("net.sw%d.up", edgeIdx)
                          : "net.up";
        e.up = std::make_unique<bus::Bus>(s, up);
        up.name = session ? strprintf("net.sw%d.down", edgeIdx)
                          : "net.down";
        e.down = std::make_unique<bus::Bus>(s, up);
        edges.push_back(std::move(e));
    }

    if (session)
        obsMoved = &session->metrics().counter("net.bytes_moved");
}

const HostTraffic &
Network::traffic(int host) const
{
    return hosts[static_cast<std::size_t>(host)].traffic;
}

/**
 * One message in flight: the per-frame walker state
 * machine and, when every stage is quiet, the closed-form collapsed
 * schedule. Lives on the transport() coroutine frame, which stays
 * alive until the completion fires; the only event that can outlive
 * a demotion — the reserved-completion event — reaches the op
 * through Network::reservedOps, so a stale id is ignored.
 */
struct Network::XferOp final : bus::Reservation
{
    Network &net;
    int src;
    int dst;
    std::uint64_t wireBytes;
    std::uint32_t frameSz;
    int frames;
    sim::Tick hop;
    int nstages = 0;
    bus::Bus *stage[4] = {};
    int arrived = 0;
    sim::Completion done;

    // Collapsed-schedule state (reserved mode only). order[s] is the
    // stage's FIFO service order: frame indices sorted by arrival —
    // on a multi-channel stage a short frame can overtake a long
    // predecessor through the other channel, so service order is not
    // frame order.
    bool reserved = false;
    std::uint64_t id = 0;
    sim::Tick t0 = 0;
    std::vector<sim::Tick> startAt[4];
    std::vector<sim::Tick> endAt[4];
    std::vector<int> order[4];

    XferOp(Network &n, int s, int d, std::uint64_t wire, bool cross)
        : net(n), src(s), dst(d), wireBytes(wire),
          frameSz(n.netParams.frameBytes),
          frames(static_cast<int>((wire + n.netParams.frameBytes - 1)
                                  / n.netParams.frameBytes)),
          hop(n.netParams.hopLatency)
    {
        stage[nstages++] = n.hosts[static_cast<std::size_t>(src)].tx.get();
        if (cross) {
            stage[nstages++] =
                n.edges[static_cast<std::size_t>(n.edgeOf(src))].up.get();
            stage[nstages++] =
                n.edges[static_cast<std::size_t>(n.edgeOf(dst))].down.get();
        }
        stage[nstages++] = n.hosts[static_cast<std::size_t>(dst)].rx.get();
        // Entry point: demote every installed reservation — even on
        // buses disjoint from our path — before we make a single
        // booking, then register as a client of every stage. A
        // reservation is only exact while its owner is the sole
        // transfer in the network: once we exist, the owner's
        // deferred per-frame events must be materialized *now*, ahead
        // of all of ours, or a later demotion would hand them
        // sequence numbers after bookings we (or transfers that
        // entered after us) already made, flipping same-tick
        // completion ties the reference engine resolves by entry
        // order (DESIGN.md §12).
        while (!n.reservedOps.empty())
            n.reservedOps.begin()->second->demote();
        for (int s = 0; s < nstages; ++s)
            stage[s]->addClient();
        ++net.opsInFlight;
    }

    ~XferOp() override
    {
        // Teardown with a live reservation only happens when a run is
        // abandoned mid-flight; unhook so nothing dangles.
        if (reserved) {
            for (int s = 0; s < nstages; ++s)
                stage[s]->clearReservation(this);
            net.reservedOps.erase(id);
        }
        for (int s = 0; s < nstages; ++s)
            stage[s]->dropClient();
        --net.opsInFlight;
    }

    std::uint32_t
    sizeOf(int i) const
    {
        if (i + 1 < frames)
            return frameSz;
        std::uint64_t last = wireBytes
                             - static_cast<std::uint64_t>(frames - 1)
                                   * frameSz;
        return static_cast<std::uint32_t>(last);
    }

    sim::Tick
    arrivalAt(int s, int i) const
    {
        if (s == 0)
            return i == 0 ? t0 : endAt[0][static_cast<std::size_t>(i - 1)];
        return endAt[s - 1][static_cast<std::size_t>(i)] + hop;
    }

    /**
     * Queue depth the frame at service position @p k would have
     * sampled when it queued on stage @p s: itself plus the frames
     * served before it that were still queued at its arrival. Starts
     * are non-decreasing along service order, so they form a suffix.
     */
    std::size_t
    queuedDepthAt(int s, int k) const
    {
        sim::Tick arr =
            arrivalAt(s, order[s][static_cast<std::size_t>(k)]);
        int j = k;
        while (j > 0
               && startAt[s][static_cast<std::size_t>(
                      order[s][static_cast<std::size_t>(j - 1)])]
                      > arr)
            --j;
        return static_cast<std::size_t>(k - j + 1);
    }

    // ----- per-frame walker -----
    //
    // Replicates the reference model's event structure one-for-one
    // (tests/oracle/coro_bus.hh, DESIGN.md §12): tx completion ->
    // launch event (the detached forwarder's process start) -> hop
    // event -> stage booking -> ... -> receiver completion. Every
    // schedule call happens inside the same event, in the same order,
    // as its coroutine counterpart, so the two assign identical
    // (tick, seq) pairs throughout.

    void
    startWalker()
    {
        bookOn(0, 0);
    }

    void
    bookOn(int s, int i)
    {
        XferOp *op = this;
        stage[s]->bookAsync(sizeOf(i), sim::InlineAction([op, s, i] {
            op->stageDone(s, i);
        }));
    }

    void
    stageDone(int s, int i)
    {
        XferOp *op = this;
        if (s == 0) {
            // The reference model spawns the detached forwarder (its
            // start is an event of its own) and then books the next
            // frame on the sender NIC, in that order.
            net.simulator.scheduleAt(
                net.simulator.now(), sim::InlineAction([op, i] {
                    op->launch(i);
                }));
            if (i + 1 < frames)
                bookOn(0, i + 1);
            return;
        }
        if (s == nstages - 1) {
            frameArrived();
            return;
        }
        net.simulator.scheduleIn(hop, sim::InlineAction([op, s, i] {
            op->hopArrive(s + 1, i);
        }));
    }

    void
    launch(int i)
    {
        XferOp *op = this;
        net.simulator.scheduleIn(hop, sim::InlineAction([op, i] {
            op->hopArrive(1, i);
        }));
    }

    void
    hopArrive(int s, int i)
    {
        bookOn(s, i);
    }

    void
    frameArrived()
    {
        if (++arrived == frames)
            done.fire();
    }

    // ----- closed-form collapse -----

    /**
     * When every stage is quiet, the whole frame train is a
     * deterministic pipeline: compute each frame's (start, end) per
     * stage with the same max/fold arithmetic the walker would
     * perform, install a reservation on the stages, and schedule one
     * completion event. O(path length) events for the message.
     */
    bool
    tryCollapse()
    {
        // Sole transfer in flight on the whole fabric: a concurrent
        // transfer anywhere — even on disjoint buses — could deliver
        // at the same tick as this train, and the tie would resolve
        // by the collapsed events' sequence numbers instead of the
        // reference chain's. Request-response traffic, the pattern
        // that dominates uncontended workloads, stays collapsed.
        if (net.opsInFlight != 1)
            return false;
        for (int s = 0; s < nstages; ++s)
            if (!stage[s]->calendarQuiet())
                return false;
        t0 = net.simulator.now();
        std::vector<sim::Tick> fold;
        for (int s = 0; s < nstages; ++s) {
            startAt[s].resize(static_cast<std::size_t>(frames));
            endAt[s].resize(static_cast<std::size_t>(frames));
            order[s].resize(static_cast<std::size_t>(frames));
            for (int i = 0; i < frames; ++i)
                order[s][static_cast<std::size_t>(i)] = i;
            // FIFO service order = arrival order (ties in frame
            // order: the lower frame's arrival event carries the
            // earlier sequence number at equal ticks).
            if (s > 0)
                std::stable_sort(
                    order[s].begin(), order[s].end(),
                    [this, s](int a, int b) {
                        return arrivalAt(s, a) < arrivalAt(s, b);
                    });
            fold = stage[s]->channelEnds();
            sim::Tick occFull = stage[s]->occupancyTicks(frameSz);
            sim::Tick occLast =
                stage[s]->occupancyTicks(sizeOf(frames - 1));
            for (int i : order[s]) {
                sim::Tick arr = arrivalAt(s, i);
                std::size_t c = 0;
                for (std::size_t k = 1; k < fold.size(); ++k)
                    if (fold[k] < fold[c])
                        c = k;
                sim::Tick st = std::max(arr, fold[c]);
                sim::Tick en =
                    st + (i + 1 < frames ? occFull : occLast);
                fold[c] = en;
                startAt[s][static_cast<std::size_t>(i)] = st;
                endAt[s][static_cast<std::size_t>(i)] = en;
            }
        }
        reserved = true;
        id = net.nextOpId++;
        net.reservedOps.emplace(id, this);
        for (int s = 0; s < nstages; ++s)
            stage[s]->setReservation(this);
        // Two-hop completion: an arm event at the delivering frame's
        // final-stage start schedules the finish at the delivery
        // tick. The reference path assigns the delivery event its
        // queue position at grant time, and that position breaks
        // completion-order ties between messages delivering at the
        // same tick — a finish scheduled here, at reservation time,
        // would sort by entry order instead.
        Network *n = &net;
        std::uint64_t myid = id;
        net.simulator.scheduleAt(
            startAt[nstages - 1][static_cast<std::size_t>(lastFrame())],
            sim::InlineAction([n, myid] { n->armReserved(myid); }));
        return true;
    }

    /** Frame delivered last (max final-stage end). */
    int
    lastFrame() const
    {
        const std::vector<sim::Tick> &ends = endAt[nstages - 1];
        return static_cast<int>(
            std::max_element(ends.begin(), ends.end()) - ends.begin());
    }

    /** Tick the last frame leaves the final stage (delivery). */
    sim::Tick
    trainEnd() const
    {
        return *std::max_element(endAt[nstages - 1].begin(),
                                 endAt[nstages - 1].end());
    }

    /** Second hop of the reserved completion; see tryCollapse(). */
    void
    arm()
    {
        Network *n = &net;
        std::uint64_t myid = id;
        net.simulator.scheduleAt(
            trainEnd(),
            sim::InlineAction([n, myid] { n->finishReserved(myid); }));
    }

    /**
     * Turn the reserved schedule (back) into concrete calendar state
     * as of @p now. Frames fully served settle their statistics and
     * fold into the channel calendars; frames in service get a
     * normal completion event; frames queued re-enter the pending
     * queue; frames in flight between stages get their hop-arrival
     * event back. Frames that have not reached a stage yet follow
     * through the walker machinery.
     */
    void
    materialize(sim::Tick now)
    {
        XferOp *op = this;
        for (int s = 0; s < nstages; ++s) {
            bus::Bus *b = stage[s];
            for (int k = 0; k < frames; ++k) {
                int i = order[s][static_cast<std::size_t>(k)];
                sim::Tick arr = arrivalAt(s, i);
                if (arr > now)
                    break; // arrivals rise along service order
                sim::Tick st = startAt[s][static_cast<std::size_t>(i)];
                sim::Tick en = endAt[s][static_cast<std::size_t>(i)];
                std::size_t depth =
                    st > arr ? queuedDepthAt(s, k) : 0;
                if (en <= now) {
                    b->commitReserved(arr, st, en, sizeOf(i), depth);
                    if (s == nstages - 1) {
                        ++arrived;
                    } else if (en + hop > now) {
                        // In flight between stages; next arrival is
                        // en + hop for the first post-tx hop and the
                        // switch hops alike.
                        int ns = s + 1;
                        net.simulator.scheduleAt(
                            en + hop, sim::InlineAction([op, ns, i] {
                                op->hopArrive(ns, i);
                            }));
                    }
                } else if (st <= now) {
                    b->adoptReservedActive(
                        arr, st, en, sizeOf(i), depth,
                        sim::InlineAction([op, s, i] {
                            op->stageDone(s, i);
                        }));
                } else {
                    b->adoptReservedQueued(
                        arr, sizeOf(i), depth,
                        sim::InlineAction([op, s, i] {
                            op->stageDone(s, i);
                        }));
                }
            }
        }
    }

    /**
     * Reservation hook: a competing transfer entered our path. If
     * the newcomer's entry event lands exactly at our delivery tick
     * with an older sequence number than the pending finish event,
     * the train is already fully delivered here — complete it now;
     * the finish event then finds a stale id. The completion still
     * lands at the same tick, from the first event of the tick that
     * observes it, matching the reference path (DESIGN.md §12).
     */
    void
    demote() override
    {
        for (int s = 0; s < nstages; ++s)
            stage[s]->clearReservation(this);
        materialize(net.simulator.now());
        net.reservedOps.erase(id);
        reserved = false;
        if (arrived == frames)
            done.fire();
    }

    /** The reserved completion event: the whole train ran to plan. */
    void
    finish()
    {
        for (int s = 0; s < nstages; ++s)
            stage[s]->clearReservation(this);
        materialize(trainEnd());
        net.reservedOps.erase(id);
        reserved = false;
        if (arrived != frames)
            panic("Network: collapsed train settled %d/%d frames",
                  arrived, frames);
        done.fire();
    }
};

void
Network::armReserved(std::uint64_t id)
{
    auto it = reservedOps.find(id);
    if (it == reservedOps.end())
        return; // demoted after this event was scheduled
    it->second->arm();
}

void
Network::finishReserved(std::uint64_t id)
{
    auto it = reservedOps.find(id);
    if (it == reservedOps.end())
        return; // demoted after this event was scheduled
    it->second->finish();
}

sim::Coro<void>
Network::transport(int src, int dst, std::uint64_t bytes)
{
    if (src < 0 || src >= hostCount() || dst < 0 || dst >= hostCount())
        panic("transport: bad endpoints %d -> %d", src, dst);
    if (src == dst) {
        // Loopback: local delivery. Counts as endpoint traffic but
        // never touches the fabric and costs no simulated time.
        hosts[static_cast<std::size_t>(src)].traffic.bytesSent += bytes;
        hosts[static_cast<std::size_t>(src)].traffic.bytesReceived
            += bytes;
        co_return;
    }
    // A zero-byte control message still crosses the fabric as one
    // minimal frame — it contends and takes time like any send — but
    // the byte accounting below stays at zero.
    const std::uint64_t wire = std::max<std::uint64_t>(bytes, 1);
    const bool cross_edge = edgeOf(src) != edgeOf(dst)
                            && edges.size() > 1;

    XferOp op(*this, src, dst, wire, cross_edge);
    if (!op.tryCollapse())
        op.startWalker();
    co_await op.done.wait();

    hosts[static_cast<std::size_t>(src)].traffic.bytesSent += bytes;
    hosts[static_cast<std::size_t>(dst)].traffic.bytesReceived += bytes;
    movedBytes += bytes;
    if (obsMoved)
        obsMoved->add(bytes);
}

} // namespace howsim::net
