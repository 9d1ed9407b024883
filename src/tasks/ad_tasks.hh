/**
 * @file
 * Active Disk implementations of the eight decision support tasks.
 *
 * Each task runs as a set of disklet pipelines, one per drive, plus
 * a front-end consumer: a stream disklet reads the local partition,
 * a processing disklet computes on the embedded CPU, and reduced or
 * repartitioned data flows over the serial interconnect (directly
 * disk-to-disk, or through the front-end in the restricted
 * architecture). The structure mirrors the coarse-grain dataflow
 * programming model of DiskOS.
 */

#ifndef HOWSIM_TASKS_AD_TASKS_HH
#define HOWSIM_TASKS_AD_TASKS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "diskos/active_disk_array.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"
#include "tasks/task_result.hh"
#include "workload/cost_model.hh"
#include "workload/dataset.hh"

namespace howsim::tasks
{

/** Runs the workload suite on an Active Disk machine. */
class AdTaskRunner
{
  public:
    AdTaskRunner(sim::Simulator &s, diskos::ActiveDiskArray &machine,
                 workload::CostModel costs
                     = workload::CostModel::calibrated());

    /**
     * Execute @p kind over @p data. Spawns the disklets, runs the
     * simulation to completion, and reports timing. Must be called
     * on a freshly constructed Simulator/machine pair.
     */
    TaskResult run(workload::TaskKind kind,
                   const workload::DatasetSpec &data);

    /**
     * Re-entrant variant for the traffic driver: spawns the same
     * disklets and joins them without draining the simulator, so
     * several runner instances can execute concurrently on one
     * machine. Each instance must carry a distinct stream id (set
     * @ref setStream before the first call); timing lands in
     * @ref lastResult. interconnectBytes stays 0 — the loop is
     * shared, so per-query attribution is meaningless.
     */
    sim::Coro<void> runConcurrent(workload::TaskKind kind,
                                  const workload::DatasetSpec &data);

    /** Stream id isolating this instance's channels and barriers. */
    void setStream(int s) { stream = s; }

    /**
     * Fraction of the per-drive memory this instance plans with
     * (working-set accounting under concurrency; default 1.0).
     */
    void setMemoryShare(double f) { memShare = f; }

    const TaskResult &lastResult() const { return result; }

    /** Drop this instance's per-stream machine state after a query. */
    void retireStream() { machine.retireStream(stream); }

  private:
    using BlockFn = std::function<sim::Coro<void>(std::uint64_t)>;

    /** @name Plumbing */
    /** @{ */
    sim::Coro<void> ioProducer(int d, std::uint64_t base,
                               std::uint64_t bytes,
                               sim::Channel<std::uint64_t> *ch);
    sim::Coro<void> streamLocal(int d, std::uint64_t base,
                                std::uint64_t bytes, BlockFn consume);
    sim::Coro<void> emitToFrontend(int d, std::uint64_t bytes,
                                   std::uint64_t *pending,
                                   bool flush);
    sim::Coro<void> sendDoneMarker(int d);
    sim::Coro<void> frontendConsumer(sim::Tick per_byte_merge_ref);
    /** @} */

    /** Per-tuple cost and emission ratio of one scan-family task. */
    struct ScanCosts
    {
        sim::Tick perTuple = 0;
        double emitRatio = 0.0;
    };

    ScanCosts scanCosts(workload::TaskKind kind,
                        const workload::DatasetSpec &data) const;

    /** @name Per-disk task workers */
    /** @{ */
    sim::Coro<void> scanWorker(int d, const workload::DatasetSpec &data,
                               workload::TaskKind kind);
    sim::Coro<void> sortPartitionWorker(int d,
                                        const workload::DatasetSpec &d2);
    sim::Coro<void> sortCollector(int d,
                                  const workload::DatasetSpec &data);
    sim::Coro<void> sortMergeWorker(int d,
                                    const workload::DatasetSpec &data);
    sim::Coro<void> joinWorker(int d, const workload::DatasetSpec &data);
    sim::Coro<void> shuffleCollector(int d, std::uint64_t expected,
                                     std::uint64_t write_base,
                                     sim::Tick per_tuple_ref,
                                     std::uint32_t tuple_bytes,
                                     const char *cpu_bucket);
    sim::Coro<void> dcubeWorker(int d,
                                const workload::DatasetSpec &data);
    sim::Coro<void> dmineWorker(int d,
                                const workload::DatasetSpec &data);
    sim::Coro<void> mviewWorker(int d,
                                const workload::DatasetSpec &data);
    sim::Coro<void> sortCoordinator();
    sim::Coro<void> dmineFrontend(const workload::DatasetSpec &data);
    /** @} */

    /** @name Keyed sort coordination (DESIGN.md §14)
     *
     * launch() pre-spawns every phase's workers — phase 2 parked on
     * a per-drive go trigger — and the front-end coordinator counts
     * keyed done-notifications and broadcasts the phase-2 go, one
     * crossLatency() hop each way.
     */
    /** @{ */

    /** Post a keyed done-notification from drive @p d. */
    void notifySortDone(int d, int *remaining, sim::Trigger *done);

    /** Run @p body, then notify the front-end coordinator. */
    sim::Coro<void> runAndNotify(sim::Coro<void> body, int d,
                                 int *remaining, sim::Trigger *done);

    /** Park on the phase-2 go trigger, then merge and notify. */
    sim::Coro<void> sortPhase2Worker(int d,
                                     const workload::DatasetSpec &data);
    /** @} */

    sim::Coro<void> computeIn(int d, const char *bucket,
                              sim::Tick ref_ticks);

    /** Fold the per-drive shards into `result`, in drive order. */
    void foldShards();

    /** Spawn the disklet set for @p kind; shared by run paths. */
    std::vector<sim::ProcessRef>
    launch(workload::TaskKind kind, const workload::DatasetSpec &data);

    /** @name Stream-routed machine shims */
    /** @{ */
    sim::Coro<void>
    sendPeer(int src, int dst, diskos::AdBlock b)
    {
        return machine.send(src, dst, std::move(b), stream);
    }

    sim::Coro<void>
    sendFe(int src, diskos::AdBlock b)
    {
        return machine.sendToFrontend(src, std::move(b), stream);
    }

    sim::Coro<void>
    feSend(int dst, diskos::AdBlock b)
    {
        return machine.frontendSend(dst, std::move(b), stream);
    }

    sim::Channel<diskos::AdBlock> &
    inbox(int d)
    {
        return machine.inbox(d, stream);
    }

    sim::Channel<diskos::AdBlock> &
    feInbox()
    {
        return machine.frontendInbox(stream);
    }

    sim::Coro<void>
    barrier(int d)
    {
        return machine.barrier(d, stream);
    }

    /** This instance's share of the per-drive disklet memory. */
    std::uint64_t
    adMemory() const
    {
        return static_cast<std::uint64_t>(
            memShare
            * static_cast<double>(machine.params().memoryBytes));
    }
    /** @} */

    int size() const { return machine.size(); }

    sim::Simulator &simulator;
    diskos::ActiveDiskArray &machine;
    workload::CostModel cm;
    TaskResult result;

    /**
     * Per-drive result shards: drive d's workers write only
     * shards[d]; run()/runConcurrent fold them into `result` in
     * drive order after the run. The fixed fold order pins the
     * floating-point bucket sums, and with them the figures' bits.
     * Front-end writers touch `result` directly.
     */
    std::vector<TaskResult> shards;

    // Keyed coordination streams, allocated in fixed order at
    // construction: doneKeys[d] for drive d's notifications,
    // goKeys for the front-end's.
    std::vector<sim::KeyStream> doneKeys;
    sim::KeyStream goKeys;

    // Sort-phase coordination state, reset by each launch().
    int sortP1Remaining = 0;
    int sortP2Remaining = 0;
    sim::Trigger sortP1Done;
    sim::Trigger sortP2Done;
    std::vector<std::unique_ptr<sim::Trigger>> sortGo;

    int doneMarkers = 0;
    std::uint64_t shuffleRoundRobin = 0;
    int stream = 0;
    double memShare = 1.0;

    // Fail-stop needs no runner state: dead drives' disklets keep
    // running and the machine hardware-redirects their operations to
    // the takeover buddy (ActiveDiskArray::route), so every task gets
    // the degraded path for free.
};

} // namespace howsim::tasks

#endif // HOWSIM_TASKS_AD_TASKS_HH
