/**
 * @file
 * The disk drive entity: request queue, scheduler, mechanism timing
 * and on-drive cache.
 *
 * The model captures the behaviours the paper's experiments depend
 * on: zoned media rates, seek/rotation costs for non-sequential
 * access, near-media-rate streaming for sequential access (via a
 * segmented read-ahead cache and write coalescing), and queueing
 * under load. Bus transfer to/from the host is *not* included here —
 * callers move data over their I/O interconnect model after the
 * mechanism completes (mirroring how DiskSim is driven in Howsim).
 */

#ifndef HOWSIM_DISK_DISK_HH
#define HOWSIM_DISK_DISK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "disk/disk_spec.hh"
#include "disk/geometry.hh"
#include "disk/seek_curve.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Counter;
class Histogram;
class Session;
class TraceSink;
} // namespace howsim::obs

namespace howsim::fault
{
class Injector;
} // namespace howsim::fault

namespace howsim::disk
{

/** Request queue ordering policy. */
enum class SchedPolicy
{
    /** First-come first-served. */
    Fcfs,
    /** LOOK elevator: sweep by cylinder, reversing at the edges. */
    Elevator,
    /** Shortest seek time first (can starve distant requests). */
    Sstf,
};

/** One I/O request addressed to a disk. */
struct DiskRequest
{
    std::uint64_t lba = 0;
    std::uint32_t sectors = 0;
    bool write = false;
};

/** Timing decomposition of a serviced request. */
struct AccessDetail
{
    sim::Tick queueTicks = 0;
    sim::Tick overheadTicks = 0;
    sim::Tick seekTicks = 0;
    sim::Tick rotationTicks = 0;
    sim::Tick mediaTicks = 0;
    /** Injected fault time: fail-slow inflation, rereads, remaps. */
    sim::Tick faultTicks = 0;
    /** Rereads charged for a transient media error (fault injection). */
    std::uint32_t retries = 0;
    std::uint64_t cacheHitBytes = 0;

    sim::Tick
    serviceTicks() const
    {
        return overheadTicks + seekTicks + rotationTicks + mediaTicks
               + faultTicks;
    }

    sim::Tick totalTicks() const { return queueTicks + serviceTicks(); }
};

/**
 * One entry of an optional per-drive request trace (the same
 * information Howsim's trace files carried: when each operation was
 * serviced and how the mechanism spent the time).
 */
struct TraceRecord
{
    sim::Tick serviceStart = 0;
    DiskRequest request;
    AccessDetail detail;
};

/** Aggregate per-disk statistics. */
struct DiskStats
{
    std::uint64_t requests = 0;
    std::uint64_t seeks = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t cacheHitBytes = 0;
    sim::Tick busyTicks = 0;
    sim::Tick seekTicks = 0;
    sim::Tick rotationTicks = 0;
    sim::Tick mediaTicks = 0;
    sim::Tick queueTicks = 0;
};

/**
 * A single disk drive. Construct against the live Simulator; the
 * drive spawns its own service process.
 */
class Disk
{
  public:
    /** The spec is copied; temporaries may be passed in. */
    Disk(sim::Simulator &s, DiskSpec spec,
         SchedPolicy policy = SchedPolicy::Fcfs,
         std::string name = "disk");

    Disk(const Disk &) = delete;
    Disk &operator=(const Disk &) = delete;

    ~Disk();

    /**
     * Issue a request and suspend until the mechanism completes.
     * Multiple outstanding requests queue per the scheduling policy.
     */
    sim::Coro<AccessDetail> access(DiskRequest req);

    const Geometry &geometry() const { return geom; }
    const DiskSpec &spec() const { return *diskSpec; }
    const DiskStats &stats() const { return accumulated; }
    const std::string &name() const { return diskName; }

    /** Bytes addressable on this drive. */
    std::uint64_t capacityBytes() const;

    /** Current request queue depth (excluding in-service). */
    std::size_t queueDepth() const { return queue.size(); }

    /**
     * Record every serviced request into @p sink (null disables).
     * The sink must outlive the drive or be detached first. Kept for
     * in-process analysis (see examples/trace_explorer.cpp); the
     * observability session records the same decomposition as trace
     * spans and histograms without any per-drive wiring.
     */
    void traceTo(std::vector<TraceRecord> *sink) { trace = sink; }

  private:
    /** A queued request; lives in its access() frame. */
    struct Pending
    {
        DiskRequest req;
        sim::Tick arrival;
        sim::Trigger done;
        AccessDetail detail;
    };

    sim::Coro<void> serviceLoop();
    Pending *pickNext();
    AccessDetail computeTiming(const DiskRequest &req);
    void injectFaults(AccessDetail &d, const DiskRequest &req);
    void recordObs(sim::Tick serviceStart, const Pending &pending);

    /** Fraction of a revolution the platter covers by time @p t. */
    double angleAt(sim::Tick t) const;

    sim::Simulator &simulator;
    Geometry geom;
    const DiskSpec *diskSpec; // points into geom's owned copy
    SeekCurve seeks;
    SchedPolicy policy;
    std::string diskName;

    /** Waiting requests in arrival order; the vector keeps its capacity. */
    std::vector<Pending *> queue;
    sim::Trigger workAvailable;

    // Mechanical state.
    std::uint32_t headCylinder = 0;
    std::uint32_t headTrack = 0;
    bool sweepingUp = true;

    // Angular reference: at refTick the head was at refAngle (in
    // revolutions, [0,1)).
    sim::Tick refTick = 0;
    double refAngle = 0.0;

    // Read-ahead window: after a read the drive streams sectors
    // following raBase into one cache segment.
    bool raValid = false;
    std::uint64_t raBase = 0;
    sim::Tick raRefTick = 0;
    std::size_t raZone = 0;

    // Write coalescing state.
    std::uint64_t lastWriteEnd = ~std::uint64_t(0);
    sim::Tick lastWriteTick = 0;

    std::vector<TraceRecord> *trace = nullptr;
    DiskStats accumulated;

    // Fault injection (null when the thread's plan has no disk
    // faults, making the clean path one null check per request).
    fault::Injector *faultInj = nullptr;
    std::uint64_t faultSite = 0;
    std::uint64_t faultSeq = 0;
    bool faultSlow = false;
    obs::Counter *obsFaultMedia = nullptr;
    obs::Counter *obsFaultRemaps = nullptr;
    obs::Counter *obsFaultSlowTicks = nullptr;
    obs::Histogram *obsFaultRetries = nullptr;

    // Cached observability hooks; all null when observability is off,
    // so the service loop pays one null check per request.
    obs::Session *obsSess = nullptr;
    obs::TraceSink *obsSink = nullptr;
    std::uint32_t obsTrack = 0;
    bool obsFine = false;
    obs::Counter *obsBytesRead = nullptr;
    obs::Counter *obsBytesWritten = nullptr;
    obs::Counter *obsCacheHits = nullptr;
    obs::Counter *obsRequests = nullptr;
    obs::Counter *obsSeeks = nullptr;
    obs::Histogram *obsService = nullptr;
    obs::Histogram *obsQueueWait = nullptr;
    obs::Histogram *obsSeekHist = nullptr;
};

} // namespace howsim::disk

#endif // HOWSIM_DISK_DISK_HH
