/**
 * @file
 * Experiment driver: configure a machine (architecture, scale,
 * design-choice variants), run one decision support task on it, and
 * report the result. This is the top of the public API — every
 * benchmark binary and example drives the simulator through it.
 */

#ifndef HOWSIM_CORE_EXPERIMENT_HH
#define HOWSIM_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "disk/disk_spec.hh"
#include "tasks/task_result.hh"
#include "workload/cost_model.hh"
#include "workload/dataset.hh"
#include "workload/task_kind.hh"

namespace howsim::fault
{
struct FaultPlan;
} // namespace howsim::fault

namespace howsim::core
{

/** The three architectures under comparison. */
enum class Arch
{
    ActiveDisk,
    Cluster,
    Smp,
};

/** Short name ("active", "cluster", "smp"). */
std::string archName(Arch arch);

/** One experiment: a task on a machine configuration. */
struct ExperimentConfig
{
    Arch arch = Arch::ActiveDisk;
    workload::TaskKind task = workload::TaskKind::Select;

    /** Disks; processors scale with it on every architecture. */
    int scale = 16;

    /** @name Design-choice variants (defaults = paper core config) */
    /** @{ */

    /** Memory per Active Disk. */
    std::uint64_t adMemoryBytes = 32ull << 20;

    /** Serial I/O interconnect aggregate rate (AD and SMP). */
    double interconnectRate = 200e6;

    /**
     * Loops composing the serial interconnect (AD and SMP). The
     * paper's core configuration is a dual loop; its conclusion
     * recommends "multiple fibre channel loops connected by a
     * FibreSwitch" beyond 64 disks — model that by raising the loop
     * count along with the aggregate rate.
     */
    int interconnectLoops = 2;

    /** Direct disk-to-disk communication (AD). */
    bool directD2d = true;

    /** Front-end host clock (AD). */
    double adFrontendMhz = 450;

    /** Drive model (Figure 3's "Fast Disk" swaps this). */
    disk::DiskSpec drive = disk::DiskSpec::seagateSt39102();

    /** @} */

    workload::CostModel costs = workload::CostModel::calibrated();

    /**
     * Fault-injection spec for this experiment (see docs/faults.md
     * for the grammar, e.g. "seed=42,disk.media.rate=1e-3"). Empty
     * means "use the HOWSIM_FAULTS environment variable"; both empty
     * yields a fault-free run. Malformed specs and specs that are
     * inconsistent with the rest of the configuration (fail-stop
     * victim out of range, fail-stop under a non-scan task) fatal()
     * with the offending value.
     */
    std::string faults;

    /**
     * Traffic-plan spec for the multi-user driver (see
     * docs/traffic grammar in DESIGN.md §15, e.g.
     * "seed=7,rate=20,duration.ms=500,mix.select=1"). Only
     * traffic::runTraffic consumes it (empty there means "use the
     * HOWSIM_TRAFFIC environment variable"); the single-query batch
     * path ignores it apart from validation — a traffic plan is
     * incompatible with stop.* fail-stop faults, whose recovery
     * protocol assumes one batch query owns the machine.
     */
    std::string traffic;
};

/**
 * Reject configurations the machine builders would turn into cryptic
 * failures (or worse, silent nonsense). fatal()s with the offending
 * value; the full table of checks is in DESIGN.md section 13. Called
 * by runExperiment and traffic::runTraffic; exposed for tests.
 */
void validateConfig(const ExperimentConfig &config,
                    const fault::FaultPlan &plan);

/** Build the machine, run the task, and return the timings. */
tasks::TaskResult runExperiment(const ExperimentConfig &config);

/**
 * Estimated configuration price in dollars (7/99 snapshot for AD and
 * cluster; the SGI list-price estimate for the SMP).
 */
double configPrice(Arch arch, int scale);

} // namespace howsim::core

#endif // HOWSIM_CORE_EXPERIMENT_HH
