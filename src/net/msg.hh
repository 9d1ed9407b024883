/**
 * @file
 * MPI-like message-passing layer over the switched network.
 *
 * Mirrors the user-space messaging library Howsim's Netsim models:
 * asynchronous point-to-point sends with per-message software
 * overheads, any-source receives (per-tag queues), and global
 * synchronization (barrier, all-reduce) with logarithmic cost.
 */

#ifndef HOWSIM_NET_MSG_HH
#define HOWSIM_NET_MSG_HH

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/network.hh"
#include "sim/awaitables.hh"
#include "sim/channel.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Histogram;
class Session;
} // namespace howsim::obs

namespace howsim::fault
{
class Injector;
} // namespace howsim::fault

namespace howsim::net
{

/**
 * Width of one concurrent-query stream's message-tag band. A task
 * runner executing as traffic stream s shifts every tag t to
 * s * kStreamTagStride + t, so concurrent queries demultiplex onto
 * disjoint (host, tag) queues with no machine-layer changes. The
 * paper tasks use tags [0, 7); the stride leaves headroom.
 */
constexpr int kStreamTagStride = 16;

/** A delivered message. */
struct Message
{
    int src = -1;
    int tag = 0;
    std::uint64_t bytes = 0;
    /** Optional model-level payload (not part of the timing). */
    std::any payload;
};

/** Software costs of the messaging library. */
struct MsgParams
{
    /** CPU time to post a send. */
    sim::Tick sendOverhead = sim::microseconds(15);

    /** CPU time to complete a receive. */
    sim::Tick recvOverhead = sim::microseconds(15);
};

/**
 * Message endpoints for every host on a Network. One instance serves
 * the whole machine; hosts are identified by their network ids.
 */
class MsgLayer
{
  public:
    MsgLayer(sim::Simulator &s, Network &n, MsgParams params = {});

    /**
     * Synchronous send: charges the send overhead, moves the bytes,
     * and completes once the message is enqueued at the destination.
     */
    sim::Coro<void> send(int src, int dst, Message msg);

    /**
     * Asynchronous send: the transfer proceeds in the background
     * (join the returned process to await local completion).
     */
    sim::ProcessRef postSend(int src, int dst, Message msg);

    /**
     * Receive the next message for (@p host, @p tag), any source.
     * Charges the receive overhead.
     */
    sim::Coro<Message> recv(int host, int tag = 0);

    /** Messages waiting in (@p host, @p tag)'s queue. */
    std::size_t pendingCount(int host, int tag = 0);

    /**
     * Drop the (host, tag) queues with tag in [@p tagLo, @p tagHi) —
     * a completed traffic stream's band. All queues must be drained
     * (a retired queue holding messages is a protocol bug).
     */
    void retireTagRange(int tagLo, int tagHi);

    /**
     * Switch cross-host send() to the keyed protocol (DESIGN.md §14):
     * a chain of three coroutine legs (source, fabric, destination)
     * stitched by keyed events @p edgeLatency (one switch hop) apart,
     * instead of one frame spanning all three devices; loopback
     * stays local to the host. Allocates key streams, so call it at
     * machine-construction time, in fixed order.
     */
    void setTopology(sim::Tick edgeLatency);

    const MsgParams &params() const { return msgParams; }

  private:
    using Queue = sim::Channel<Message>;

    Queue &queueFor(int host, int tag);
    sim::Coro<void> faultyTransport(int src, int dst,
                                    std::uint64_t bytes);

    /** @name Keyed send-protocol legs (after setTopology)
     *
     * The Message and the completion trigger live in send()'s
     * suspended frame (DESIGN.md §14).
     */
    /** @{ */

    /** Fabric leg: move the bytes (with injected loss) and hop on. */
    sim::Coro<void> fabricLeg(int src, int dst, Message *msg,
                              sim::Trigger *acked);

    /** Destination leg: enqueue, then ack back to the sender. */
    sim::Coro<void> deliverLeg(int dst, Message *msg,
                               sim::Trigger *acked);

    /** @} */

    sim::Simulator &simulator;
    Network &network;
    MsgParams msgParams;
    std::map<std::pair<int, int>, std::unique_ptr<Queue>> queues;
    // Cached observability hooks; null when observability is off.
    obs::Session *obsSess = nullptr;
    obs::Counter *obsMsgs = nullptr;
    obs::Counter *obsBytes = nullptr;
    // Fault injection: per-link message sequence counters feed the
    // deterministic drop/corrupt decisions. Null/untouched when the
    // thread's plan has no network faults.
    fault::Injector *faultInj = nullptr;
    std::map<std::pair<int, int>, std::uint64_t> linkSeq;
    obs::Counter *obsRetrans = nullptr;
    obs::Counter *obsDrops = nullptr;
    obs::Counter *obsCorrupt = nullptr;
    obs::Histogram *obsAttempts = nullptr;

    // Keyed protocol (setTopology). hostKeys[h] keys the legs host h
    // posts (send posts and delivery acks), fabricKeys the fabric's.
    bool keyed = false;
    sim::Tick edgeLatency = 0;
    std::vector<sim::KeyStream> hostKeys;
    sim::KeyStream fabricKeys;
};

/**
 * Reusable all-to-all barrier for a fixed-size group. Completion is
 * charged a logarithmic (dissemination-style) latency.
 *
 * Two arrival protocols share the timing model. The legacy arrive()
 * mutates shared round state directly. Once setTopology() declares
 * the arrival edge, arrive(participant) instead posts a keyed arrival
 * notification to the home (the coordinating front end) one edge
 * latency out; the home collects arrivals in key order and, when the
 * round is full, posts keyed releases that land at exactly
 * t_last + completionCost — the same tick the legacy path fires at
 * (DESIGN.md §14).
 */
class Barrier
{
  public:
    /**
     * @param n     Number of participants per round.
     * @param cost  Modeled completion latency once all have arrived.
     */
    Barrier(sim::Simulator &s, int n, sim::Tick cost);

    /** Arrive and wait for the round to complete. */
    sim::Coro<void> arrive();

    /**
     * Keyed arrival for @p participant (0-based, stable). Falls back
     * to the legacy protocol until setTopology() is called.
     */
    sim::Coro<void> arrive(int participant);

    /**
     * Switch arrive(participant) to the keyed protocol, with arrival
     * notifications crossing @p edgeLatency to the home. Allocates
     * the round's key streams, so call order must be fixed at
     * machine-construction time (Simulator::allocKeyStream).
     * @p edgeLatency must not exceed the completion cost: the release
     * lands completionCost - edgeLatency after the last arrival
     * notification.
     */
    void setTopology(sim::Tick edgeLatency);

    /** Rounds completed so far. */
    int generation() const { return gen; }

    /** Dissemination-cost helper: ceil(log2 n) * per_step. */
    static sim::Tick logCost(int n, sim::Tick per_step);

  private:
    /** Home side of one keyed arrival. */
    void homeArrive(sim::Trigger *done);

    sim::Simulator &simulator;
    int expected;
    sim::Tick completionCost;
    int count = 0;
    int gen = 0;
    std::shared_ptr<sim::Trigger> current;

    /** @name Keyed mode (after setTopology) */
    /** @{ */
    bool keyed = false;
    sim::Tick edgeLatency = 0;
    /** Per-participant arrival streams. */
    std::vector<sim::KeyStream> arriveKeys;
    /** Release stream, advanced by the home. */
    sim::KeyStream releaseKeys;
    /** Home-owned arrival log for the open round, in key order. */
    std::vector<sim::Trigger *> arrivals;
    /** @} */
};

/**
 * Reusable all-reduce over double values for a fixed-size group.
 * Latency model matches Barrier.
 */
class AllReduce
{
  public:
    using Op = std::function<double(double, double)>;

    AllReduce(sim::Simulator &s, int n, sim::Tick cost,
              Op op = [](double a, double b) { return a + b; });

    /** Contribute @p value; resumes with the combined result. */
    sim::Coro<double> arrive(double value);

  private:
    struct Round
    {
        sim::Trigger trig;
        double acc = 0;
        bool first = true;
    };

    sim::Simulator &simulator;
    int expected;
    sim::Tick completionCost;
    Op combine;
    int count = 0;
    std::shared_ptr<Round> current;
};

} // namespace howsim::net

#endif // HOWSIM_NET_MSG_HH
