/**
 * @file
 * The Active Disk array: drives with embedded processors and DiskOS,
 * a shared serial interconnect, and the front-end host.
 *
 * DiskOS semantics modeled here:
 *  - Disklets compute on the drive's embedded CPU (a unit resource).
 *  - Local media I/O does not touch the serial interconnect.
 *  - Inter-device communication is flow-controlled by a fixed pool
 *    of DiskOS stream buffers per drive (scaling with drive memory).
 *  - With direct disk-to-disk communication, a block crosses the
 *    interconnect once. In the restricted architecture it crosses
 *    twice and is copied in and out of front-end memory by the
 *    front-end CPU, which becomes the bottleneck under load.
 */

#ifndef HOWSIM_DISKOS_ACTIVE_DISK_ARRAY_HH
#define HOWSIM_DISKOS_ACTIVE_DISK_ARRAY_HH

#include <any>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bus/bus.hh"
#include "disk/disk.hh"
#include "diskos/ad_params.hh"
#include "fault/fault.hh"
#include "net/msg.hh"
#include "os/cpu.hh"
#include "sim/channel.hh"
#include "sim/coro.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

namespace howsim::obs
{
class Counter;
} // namespace howsim::obs

namespace howsim::diskos
{

/** A block delivered to a drive's stream inbox. */
struct AdBlock
{
    int src = -1;
    int tag = 0;
    std::uint64_t bytes = 0;
    std::any payload;
};

/** Per-drive statistics beyond the mechanism's own. */
struct AdDiskStats
{
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
};

/** Front-end statistics. */
struct FrontendStats
{
    std::uint64_t bytesIngested = 0;
    std::uint64_t bytesRelayed = 0;
};

/**
 * A complete Active Disk machine. Drives are numbered [0, size);
 * the front-end is a separate endpoint reached via sendToFrontend().
 */
class ActiveDiskArray
{
  public:
    ActiveDiskArray(sim::Simulator &s, int ndisks,
                    const disk::DiskSpec &spec, AdParams params = {});

    ActiveDiskArray(const ActiveDiskArray &) = delete;
    ActiveDiskArray &operator=(const ActiveDiskArray &) = delete;

    int size() const { return static_cast<int>(drives.size()); }
    const AdParams &params() const { return adParams; }

    /** @name Per-drive operations (disklet-facing API) */
    /** @{ */

    /** Stream @p bytes from local media at byte @p offset. */
    sim::Coro<void> readLocal(int d, std::uint64_t offset,
                              std::uint64_t bytes);

    /** Stream @p bytes to local media at byte @p offset. */
    sim::Coro<void> writeLocal(int d, std::uint64_t offset,
                               std::uint64_t bytes);

    /** Run @p ref_ticks of reference-CPU disklet work on drive d. */
    sim::Coro<void> compute(int d, sim::Tick ref_ticks);

    /**
     * Send a block to a peer drive. Waits for a DiskOS stream buffer
     * (flow control) and routes directly or via the front-end per
     * the configured communication architecture. @p stream selects
     * the destination's per-query inbox: 0 (the batch path) is the
     * drive's preallocated inbox; concurrent traffic queries pass
     * their own stream id so interleaved queries never consume each
     * other's blocks (they still share the loop, buffer pools and
     * CPUs — contention is the point).
     */
    sim::Coro<void> send(int src, int dst, AdBlock block,
                         int stream = 0);

    /** Send a block to the front-end host. */
    sim::Coro<void> sendToFrontend(int src, AdBlock block,
                                   int stream = 0);

    /**
     * Send a block from the front-end host to a drive (candidate
     * broadcasts, control data): front-end copy-out plus an
     * interconnect crossing.
     */
    sim::Coro<void> frontendSend(int dst, AdBlock block,
                                 int stream = 0);

    /** Inbox of blocks delivered to drive @p d on @p stream. */
    sim::Channel<AdBlock> &inbox(int d, int stream = 0);

    /** Blocks delivered to the front-end on @p stream. */
    sim::Channel<AdBlock> &frontendInbox(int stream = 0);

    /** @} */

    /**
     * Barrier over all drives (front-end coordinated), arriving as
     * drive @p participant. The batch barrier (stream 0) uses the
     * keyed arrival protocol once useKeyedHandshakes() has run;
     * streams get independent legacy barriers (identical cost model)
     * so one query's phase boundary never gates another's.
     */
    sim::Coro<void> barrier(int participant, int stream = 0);

    /**
     * Drop the per-stream channels and barrier of a completed
     * traffic query (stream > 0 only). Panics if any retired inbox
     * still holds blocks — that is a protocol bug, not cleanup.
     */
    void retireStream(int stream);

    /** Underlying drive mechanism (stats, capacity). */
    disk::Disk &drive(int d);

    /** Embedded CPU of drive @p d. */
    os::Cpu &cpu(int d);

    /** Front-end host CPU. */
    os::Cpu &frontendCpu() { return *feCpu; }

    const bus::Bus &interconnect() const { return *fc; }
    const AdDiskStats &diskStats(int d) const;
    const FrontendStats &frontendStats() const { return feStats; }

    /** Usable bytes per drive. */
    std::uint64_t driveCapacity() const;

    /**
     * Switch the batch barrier to the keyed arrival protocol
     * (DESIGN.md §14). Allocates the barrier's key streams, so call
     * it once, right after construction; runExperiment does. Traffic
     * runs and unit tests keep the legacy shared-state barrier.
     */
    void useKeyedHandshakes();

    /**
     * Latency of one keyed hop in the send protocol: the loop's
     * minimum grant latency.
     */
    sim::Tick crossLatency() const { return fc->minGrantLatency(); }

    /** @name Availability (fail-stop takeover, DESIGN.md §13) */
    /** @{ */

    /** This machine's resolved fail-stop schedule (empty = none). */
    const fault::StopSchedule &stopSchedule() const { return stopSched; }

    /**
     * One failure-detector probe round trip over the serial
     * interconnect, from the front end to drive @p d: a request frame,
     * a firmware turnaround, an ack frame — unless @p d is down at
     * probe arrival, in which case there is no ack and the caller eats
     * the silence.
     */
    sim::Coro<bool> heartbeat(int d);

    /**
     * Copy one replica chunk back onto rejoined drive @p victim: a
     * replica read on its takeover buddy, a flow-controlled send
     * across the loop on the reserved rebuild stream, a local write —
     * all contending with foreground disklets.
     */
    sim::Coro<void> rebuildChunk(int victim, std::uint64_t offset,
                                 std::uint64_t bytes);

    /** @} */

  private:
    struct Drive
    {
        std::unique_ptr<disk::Disk> mech;
        std::unique_ptr<os::Cpu> cpu;
        std::unique_ptr<sim::Resource> commBuffers;
        std::unique_ptr<sim::Channel<AdBlock>> inbox;
        AdDiskStats stats;
    };

    sim::Coro<void> relayViaFrontend(int dst, std::uint64_t bytes);

    /**
     * One interconnect crossing src -> dst (-1 = the front-end) with
     * injected frame loss: timeout + retransmit with exponential
     * backoff on a drop, immediate NACK retransmit on corruption.
     * Callers branch to the plain fc transfer when faults are off.
     */
    sim::Coro<void> loopTransfer(int src, int dst,
                                 std::uint64_t bytes);

    /**
     * @name Keyed send-protocol legs (DESIGN.md §14)
     *
     * A send is a chain of detached coroutines, one per device it
     * visits (source drive, loop/front-end, destination drive),
     * stitched together by keyed events one crossLatency() apart.
     * The AdBlock and the completion trigger live in the originating
     * coroutine's suspended frame.
     */
    /** @{ */

    /** Loop/front-end leg of a drive-to-drive send. */
    sim::Coro<void> sendFeLeg(int src, int dst, int stream,
                              AdBlock *block, sim::Trigger *acked);

    /**
     * Destination-drive leg: count the bytes, enqueue into the inbox
     * (blocking on flow control), then ack the sender.
     */
    sim::Coro<void> deliverLeg(int dst, int stream, AdBlock *block,
                               sim::Trigger *acked);

    /** Front-end leg of sendToFrontend: transfer, copy, ingest. */
    sim::Coro<void> feIngestLeg(int src, int stream, AdBlock *block,
                                sim::Trigger *acked);

    /** @} */

    /**
     * Fail-stop takeover routing: the physical drive that serves an
     * operation addressed to @p d right now. A live drive serves
     * itself. An operation addressed to a dead drive stalls until the
     * front end could have declared the death (the nominal lease) or
     * until the drive restarts, whichever is first, then runs on the
     * drive itself (restarted) or on its takeover buddy (redirected,
     * counted in Counters::stopRedirects). Pure plan arithmetic — no
     * detector state is read.
     */
    sim::Coro<int> route(int d);

    sim::Simulator &simulator;
    AdParams adParams;
    std::vector<Drive> drives;
    std::unique_ptr<bus::Bus> fc;
    std::unique_ptr<os::Cpu> feCpu;
    std::unique_ptr<sim::Resource> feBuffers;
    std::unique_ptr<sim::Channel<AdBlock>> feInbox;
    std::unique_ptr<net::Barrier> syncBarrier;
    FrontendStats feStats;

    // Stream-isolated channels/barriers for concurrent traffic
    // queries, created on first use. Stream 0 maps to the
    // preallocated members above, so a batch run never touches
    // these maps.
    std::map<std::pair<int, int>,
             std::unique_ptr<sim::Channel<AdBlock>>>
        streamInboxes;
    std::map<int, std::unique_ptr<sim::Channel<AdBlock>>>
        streamFeInboxes;
    std::map<int, std::unique_ptr<net::Barrier>> streamBarriers;

    // Fault injection (null when the plan has no network faults).
    fault::Injector *faultInj = nullptr;
    std::map<std::pair<int, int>, std::uint64_t> linkSeq;
    obs::Counter *obsRetrans = nullptr;

    // Fail-stop takeover (empty schedule / null when not configured).
    fault::StopSchedule stopSched;
    fault::Injector *stopInj = nullptr;

    // Keyed send-protocol streams: driveKeys[d] for the legs drive d
    // posts, feKeys for the loop/front-end's (allocation order fixed
    // in the ctor).
    std::vector<sim::KeyStream> driveKeys;
    sim::KeyStream feKeys;
};

} // namespace howsim::diskos

#endif // HOWSIM_DISKOS_ACTIVE_DISK_ARRAY_HH
