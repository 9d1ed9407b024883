/**
 * @file
 * Result of running one decision support task on one machine.
 */

#ifndef HOWSIM_TASKS_TASK_RESULT_HH
#define HOWSIM_TASKS_TASK_RESULT_HH

#include <cstdint>

#include "fault/detector.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace howsim::tasks
{

/** Timing and accounting for one task execution. */
struct TaskResult
{
    /** End-to-end simulated execution time. */
    sim::Tick elapsedTicks = 0;

    /**
     * Named accounting buckets in seconds. Phase elapsed times use
     * "<phase>.elapsed"; per-phase aggregate CPU busy time across
     * devices uses "<phase>.<activity>" (e.g. "p1.partitioner"), as
     * needed for the paper's Figure 3 breakdown.
     */
    sim::Breakdown buckets;

    /** Bytes moved over the machine's shared interconnect. */
    std::uint64_t interconnectBytes = 0;

    /**
     * Logical result bytes the task produced (emitted to the
     * front-end or claimed from the shared store). Invariant under
     * fault injection: a degraded run must deliver exactly the bytes
     * a fault-free run delivers.
     */
    std::uint64_t outputBytes = 0;

    /**
     * Failure-detector and rebuild accounting when a fault plan is
     * active (all zero otherwise); filled by core::runExperiment from
     * the detector it wires next to the machine.
     */
    fault::AvailabilityStats availability;

    double seconds() const { return sim::toSeconds(elapsedTicks); }
};

} // namespace howsim::tasks

#endif // HOWSIM_TASKS_TASK_RESULT_HH
