/**
 * @file
 * Scheduler policy selection and the key type shared by the
 * pluggable event-queue implementations.
 *
 * The simulation kernel ships two interchangeable scheduler policies
 * (see event_heap.hh and event_ladder.hh). Both drain events in
 * strict (tick, sequence) order, so a simulation's execution — and
 * therefore every table/figure output — is bit-identical under
 * either; they differ only in host-time cost per operation. The
 * HOWSIM_SCHED environment variable ("ladder" | "heap") picks the
 * default policy for newly built queues.
 */

#ifndef HOWSIM_SIM_SCHED_HH
#define HOWSIM_SIM_SCHED_HH

#include <cstdint>
#include <type_traits>

#include "sim/ticks.hh"

namespace howsim::sim
{

/** The interchangeable event-queue implementations. */
enum class SchedPolicy
{
    /** Single binary heap; O(log n) schedule/pop. The reference. */
    Heap,
    /** Ladder queue; amortized O(1) schedule/pop. The default. */
    Ladder,
};

/** Short name ("heap", "ladder"). */
const char *schedPolicyName(SchedPolicy policy);

/**
 * The policy named by HOWSIM_SCHED, or SchedPolicy::Ladder when the
 * variable is unset. Unrecognised values warn once and fall back to
 * the default. Read per call (not cached) so tests can switch the
 * environment between simulator constructions.
 */
SchedPolicy defaultSchedPolicy();

/**
 * The ordering key of one pending event. The sequence number is a
 * per-queue schedule counter that breaks same-tick ties, keeping
 * simulations deterministic regardless of the underlying container.
 * The action itself stays put in EventQueue's slot pool; the
 * containers only sift, split and spill this 24-byte key, whose
 * `slot` names the pool entry.
 */
struct SchedEntry
{
    Tick when;
    std::uint64_t seq;
    std::uint32_t slot;
};

static_assert(std::is_trivially_copyable_v<SchedEntry>
              && sizeof(SchedEntry) <= 24);

/** Min-order comparator for the std:: heap algorithms. */
struct SchedAfter
{
    bool
    operator()(const SchedEntry &a, const SchedEntry &b) const noexcept
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_SCHED_HH
