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
     * Pre-create the (@p host, @p tag) queue outside the batch band
     * — e.g. the rebuild band of a fail-stop victim. Must run on the
     * construction thread before Simulator::run(): once partition
     * threads split, a lazy queue-map insert would race.
     */
    void reserveTag(int host, int tag);

    /**
     * Declare the partitioned topology (DESIGN.md §14): the fabric's
     * partition — which owns the stage buses, the link sequence
     * counters and the fault decisions — the minimum cut-edge latency
     * (one switch hop), and each host's partition. From then on a
     * cross-host send() is a chain of three coroutine legs (source,
     * fabric, destination) stitched by keyed events, instead of one
     * frame spanning all three devices; loopback stays local to the
     * host. Allocates key streams and the batch band's (host, tag)
     * queues, so call order must be fixed at machine-construction
     * time and further queues must never appear lazily.
     */
    void setTopology(int fabricPartition, sim::Tick edgeLatency,
                     std::vector<int> partitionOfHost);

    const MsgParams &params() const { return msgParams; }

  private:
    using Queue = sim::Channel<Message>;

    Queue &queueFor(int host, int tag);
    sim::Coro<void> faultyTransport(int src, int dst,
                                    std::uint64_t bytes);

    /** @name Keyed send-protocol legs (after setTopology)
     *
     * The Message and the completion trigger live in send()'s
     * suspended frame; the window barrier orders each leg's accesses
     * before the next partition's (DESIGN.md §14).
     */
    /** @{ */

    /** Fabric leg: move the bytes (with injected loss) and hop on. */
    sim::Coro<void> fabricLeg(int src, int dst, Message *msg,
                              sim::Trigger *acked);

    /** Destination leg: enqueue, then ack back to @p ackPart. */
    sim::Coro<void> deliverLeg(int dst, Message *msg, int ackPart,
                               sim::Trigger *acked);

    /** @} */

    /**
     * Cached obs hooks are only valid on the thread that owns the
     * session; partition threads (whose thread-local session is
     * null) must skip them.
     */
    bool obsLive() const;

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

    // Partitioned topology (setTopology). hostKeys[h] is advanced
    // only by events executing on host h's partition (send posts and
    // delivery acks), fabricKeys only on the fabric's.
    bool partitioned = false;
    int fabricPart = 0;
    sim::Tick edgeLatency = 0;
    std::vector<int> partOfHost;
    std::vector<sim::KeyStream> hostKeys;
    sim::KeyStream fabricKeys;
};

/**
 * Reusable all-to-all barrier for a fixed-size group. Completion is
 * charged a logarithmic (dissemination-style) latency.
 *
 * Two arrival protocols share the timing model. The legacy arrive()
 * mutates shared round state directly and requires every participant
 * on one partition. Once setTopology() declares a home partition and
 * the participants' partitions, arrive(participant) instead posts a
 * keyed arrival notification to the home across the declared edge;
 * the home collects arrivals in deterministic key order and, when the
 * round is full, posts keyed releases that land at exactly
 * t_last + completionCost — the same tick the legacy path fires at —
 * so the barrier synchronizes devices split across partitions without
 * any shared coroutine frame crossing the cut (DESIGN.md §14).
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
     * Partition-aware arrival for @p participant (0-based, stable).
     * Falls back to the legacy protocol until setTopology() is
     * called. Must execute on the participant's declared partition.
     */
    sim::Coro<void> arrive(int participant);

    /**
     * Declare the partitioned topology: the home partition that
     * collects arrivals, the minimum cut-edge latency an arrival
     * notification crosses, and each participant's partition.
     * Allocates the round's key streams, so call order must be fixed
     * at machine-construction time (Simulator::allocKeyStream).
     * @p edgeLatency must not exceed the completion cost — the
     * release posts with a margin of completionCost - edgeLatency,
     * which conservative synchronization needs >= the lookahead.
     */
    void setTopology(int home, sim::Tick edgeLatency,
                     std::vector<int> partitionOf);

    /** Rounds completed so far. */
    int generation() const { return gen; }

    /** Dissemination-cost helper: ceil(log2 n) * per_step. */
    static sim::Tick logCost(int n, sim::Tick per_step);

  private:
    /** Home-partition side of one keyed arrival. */
    void homeArrive(int participant, sim::Trigger *done);

    sim::Simulator &simulator;
    int expected;
    sim::Tick completionCost;
    int count = 0;
    int gen = 0;
    std::shared_ptr<sim::Trigger> current;

    /** @name Partitioned mode (after setTopology) */
    /** @{ */
    bool partitioned = false;
    int homePartition = 0;
    sim::Tick edgeLatency = 0;
    std::vector<int> partitionOf;
    /** Per-participant arrival streams; advanced on the owner only. */
    std::vector<sim::KeyStream> arriveKeys;
    /** Release stream; advanced on the home partition only. */
    sim::KeyStream releaseKeys;
    /** Home-owned arrival log for the open round, in key order. */
    std::vector<std::pair<int, sim::Trigger *>> arrivals;
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
