/**
 * @file
 * The ordering key shared by the event ladder (event_ladder.hh) and
 * EventQueue, which decodes its handle reference.
 */

#ifndef HOWSIM_SIM_SCHED_HH
#define HOWSIM_SIM_SCHED_HH

#include <cstdint>
#include <type_traits>

#include "sim/ticks.hh"

namespace howsim::sim
{

/**
 * The ordering key of one pending event. The sequence number is a
 * per-queue schedule counter that breaks same-tick ties, keeping
 * simulations deterministic regardless of the underlying container.
 * The containers only sift, split and spill this 24-byte key; `ref`
 * says what runs when it pops. Most events only resume a coroutine,
 * so `ref` is a tagged handle: a coroutine frame address (frames are
 * aligned, so the low bit is 0), resumed directly, or
 * `slot << 1 | 1`, naming an action parked in EventQueue's slot pool.
 */
struct SchedEntry
{
    Tick when;
    std::uint64_t seq;
    std::uint64_t ref;
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
