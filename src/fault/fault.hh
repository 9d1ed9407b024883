/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * A FaultPlan describes which perturbations to apply to a run: disk
 * fail-slow inflation, transient media errors (bounded
 * retry-with-reread), remapped-sector penalty seeks, per-link frame
 * drop/corruption with retransmission, and the fail-stop of one
 * disk/host mid-run. Plans compile from a spec string (see
 * docs/faults.md for the grammar) supplied via
 * ExperimentConfig::faults or the HOWSIM_FAULTS environment variable.
 *
 * Every injection decision is a pure function
 *   hash(seed, site, sequence, draw) -> [0, 1)
 * of the plan seed, a stable site id (disk name, link endpoints), and
 * a per-site sequence number that advances in simulated event order.
 * No stateful RNG stream exists, so decisions cannot depend on host
 * thread interleaving: the same seed and plan give bit-identical
 * results at every HOWSIM_JOBS setting.
 */

#ifndef HOWSIM_FAULT_FAULT_HH
#define HOWSIM_FAULT_FAULT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ticks.hh"

namespace howsim::obs
{
class Session;
} // namespace howsim::obs

namespace howsim::fault
{

/** Compiled fault-injection plan; all-defaults means "no faults". */
struct FaultPlan
{
    /** Base seed mixed into every injection decision. */
    std::uint64_t seed = 1;

    /** @name Disk faults */
    /** @{ */

    /** Fraction of drives that are fail-slow (selected by name hash). */
    double diskSlowFrac = 0.0;

    /** Mechanism-time multiplier on a fail-slow drive (>= 1). */
    double diskSlowFactor = 4.0;

    /** Per-request probability of a transient media error. */
    double diskMediaRate = 0.0;

    /** Maximum rereads charged for one media error (>= 1). */
    int diskMediaRetries = 3;

    /** Per-request probability of hitting a remapped sector. */
    double diskRemapRate = 0.0;

    /** @} */
    /** @name Network / interconnect faults */
    /** @{ */

    /** Per-attempt probability a transmission is dropped. */
    double netDropRate = 0.0;

    /** Per-attempt probability a transmission arrives corrupted. */
    double netCorruptRate = 0.0;

    /** Retransmission bound; the last attempt always delivers. */
    int netRetries = 8;

    /** Base drop-detection timeout (doubles per retry). */
    sim::Tick netTimeout = sim::microseconds(1000);

    /** @} */
    /** @name Fail-stop / availability */
    /** @{ */

    /** Disk/host indices that fail-stop ("stop.disk=1+4+7"). */
    std::vector<int> stopDisks;

    /** Per-device probability of being drawn as an extra victim. */
    double stopRate = 0.0;

    /** Simulated time of the fail-stop (shared by all victims). */
    sim::Tick stopAt = 0;

    /** Victims rejoin this long after stopping (0 = never). */
    sim::Tick stopRestart = 0;

    /** Heartbeat period of the failure detector (> 0). */
    sim::Tick hbPeriod = sim::milliseconds(5);

    /** Lease = hb.timeout.x missed heartbeat periods (>= 1). */
    double hbTimeoutX = 3.0;

    /** Rebuild throttle after a rejoin, MB/s of replica copy. */
    double rebuildRateMBs = 32.0;

    /** @} */

    bool
    diskFaultsActive() const
    {
        return diskSlowFrac > 0.0 || diskMediaRate > 0.0
               || diskRemapRate > 0.0;
    }

    bool
    netFaultsActive() const
    {
        return netDropRate > 0.0 || netCorruptRate > 0.0;
    }

    bool
    stopConfigured() const
    {
        return !stopDisks.empty() || stopRate > 0.0;
    }

    /**
     * The detection lease: how stale a device's last heartbeat ack
     * may be before the front end declares it dead — hb.timeout.x
     * periods of the heartbeat detector.
     */
    sim::Tick
    leaseTicks() const
    {
        return static_cast<sim::Tick>(
            static_cast<double>(hbPeriod) * hbTimeoutX);
    }

    /** True when any perturbation is configured (seed alone is not). */
    bool
    active() const
    {
        return diskFaultsActive() || netFaultsActive()
               || stopConfigured();
    }

    /**
     * Compile a spec string ("seed=42,disk.media.rate=1e-3,...").
     * fatal()s with the offending key/value on any malformed input.
     * An empty spec yields the default (inactive) plan.
     */
    static FaultPlan parse(const std::string &spec);

    /** parse(HOWSIM_FAULTS), or the inactive plan when unset. */
    static FaultPlan fromEnv();

    /**
     * Canonical spec string: non-default keys in the documented
     * order, such that parse(toString()) reproduces this plan
     * field-for-field. The inactive default plan serializes to "".
     * This is what runs embed in their metrics JSON and bench
     * records so any faulted artifact is reproducible by itself.
     */
    std::string toString() const;
};

/**
 * The resolved fail-stop schedule of one run: the union of the
 * explicit stop.disk victims and the stop.rate counter-hash draws,
 * clamped to the machine's device count, each with its death and
 * rejoin instants. Aliveness is a pure function of (plan, device,
 * time), so every layer — machines redirecting I/O, the detector
 * measuring latency, the traffic driver retrying queries — agrees on
 * it without exchanging state.
 */
struct StopSchedule
{
    struct Victim
    {
        int device = -1;
        sim::Tick stopAt = 0;

        /** First instant the device serves again (0 = never). */
        sim::Tick restartAt = 0;

        bool
        rejoins() const
        {
            return restartAt > stopAt;
        }
    };

    /** Victims in ascending device order (deduplicated). */
    std::vector<Victim> victims;

    /** Detection lease (FaultPlan::leaseTicks()). */
    sim::Tick lease = 0;

    bool empty() const { return victims.empty(); }

    /** The victim record for @p device, or null. */
    const Victim *victimOf(int device) const;

    /** Is @p device serving at @p now? */
    bool aliveAt(int device, sim::Tick now) const;

    /** Is any device down at @p now? */
    bool degradedAt(sim::Tick now) const;

    /**
     * Does a death instant fall inside [@p from, @p to)? The traffic
     * driver retries exactly the queries whose first attempt
     * overlaps a death.
     */
    bool deathWithin(sim::Tick from, sim::Tick to) const;

    /**
     * The next device after @p device (cyclically, among @p count)
     * that is never a victim — the mirror/replica peer that absorbs
     * the victim's work. Requires at least one non-victim.
     */
    int buddyOf(int device, int count) const;

    /**
     * Resolve @p plan against @p count devices: explicit victims
     * union rate-drawn ones (unitDraw(seed, siteId("stop.rate"),
     * device, 0) < stop.rate). Out-of-range explicit victims are
     * dropped — validateConfig rejects them before any machine is
     * built, so a machine resolving its own schedule never sees
     * them. If every device would be a victim the highest-numbered
     * ones are spared until one survivor remains.
     */
    static StopSchedule resolve(const FaultPlan &plan, int count);
};

/** Totals of injected events, readable by tests and timeline probes. */
struct Counters
{
    std::uint64_t diskSlowRequests = 0;
    sim::Tick diskSlowTicks = 0;
    std::uint64_t diskMediaErrors = 0;
    std::uint64_t diskRetries = 0;
    std::uint64_t diskRemaps = 0;
    std::uint64_t netDrops = 0;
    std::uint64_t netCorruptions = 0;
    std::uint64_t netRetransmits = 0;
    std::uint64_t stopDeaths = 0;
    std::uint64_t stopRedirects = 0;
    std::uint64_t recoveredBlocks = 0;
};

/** splitmix64 finalizer: the core of every injection decision. */
std::uint64_t mix64(std::uint64_t x);

/**
 * Uniform draw in [0, 1) for (seed, site, seq, draw) — the stateless
 * counter-hash every deterministic decision in the repo shares (fault
 * injection and the traffic subsystem's arrival/mix/think draws).
 */
double unitDraw(std::uint64_t seed, std::uint64_t site,
                std::uint64_t seq, std::uint64_t draw);

/** Stable site id for a named component (FNV-1a of the name). */
std::uint64_t siteId(std::string_view name);

/** Stable site id for a directed link (endpoints may be -1 = host). */
std::uint64_t linkSite(int src, int dst);

/**
 * The injection decisions for one plan plus the event totals. One
 * injector serves one experiment; models cache the thread-local
 * current() pointer at construction, so the disabled path costs one
 * null check.
 */
class Injector
{
  public:
    explicit Injector(FaultPlan p) : faultPlan(p) {}

    const FaultPlan &plan() const { return faultPlan; }
    Counters &counters() { return totals; }
    const Counters &counters() const { return totals; }

    /** Is the drive with this site id fail-slow under the plan? */
    bool diskIsSlow(std::uint64_t site) const;

    /**
     * Rereads charged for request #seq on drive @p site: 0 almost
     * always; >= 1 with probability disk.media.rate, decaying
     * geometrically up to the disk.media.retries bound.
     */
    int diskMediaRetryCount(std::uint64_t site, std::uint64_t seq) const;

    /** Does request #seq on drive @p site hit a remapped sector? */
    bool diskRemapHit(std::uint64_t site, std::uint64_t seq) const;

    /** Outcome of one transmission attempt. */
    enum class NetFail
    {
        None,
        Drop,
        Corrupt,
    };

    /**
     * Outcome of attempt #attempt of message #seq on link @p site.
     * Attempts at or beyond the net.retries bound always deliver.
     */
    NetFail netAttempt(std::uint64_t site, std::uint64_t seq,
                       int attempt) const;

  private:
    FaultPlan faultPlan;
    Counters totals;
};

/**
 * Installs an Injector as the thread-local current() for the
 * experiment being built on this thread (mirroring obs::Session).
 * Inactive plans install nothing, so fault-free runs take the
 * null-pointer fast path everywhere. When an observability session is
 * live, the scope registers one timeline probe per fault class
 * (disk / net / fail-stop) reading the injector's counters.
 */
class Scope
{
  public:
    explicit Scope(const FaultPlan &plan);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** The installed injector (null for an inactive plan). */
    Injector *injector() { return inj.get(); }

  private:
    std::unique_ptr<Injector> inj;
    Injector *prev = nullptr;
    obs::Session *obsSess = nullptr;
};

/** The thread's active injector, or null when faults are off. */
Injector *current();

} // namespace howsim::fault

#endif // HOWSIM_FAULT_FAULT_HH
