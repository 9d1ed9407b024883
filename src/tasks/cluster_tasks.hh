/**
 * @file
 * Commodity-cluster implementations of the eight decision support
 * tasks.
 *
 * Each node runs a worker process on its own CPU, reads its local
 * partition through the OS and PCI bus, and exchanges repartitioned
 * data with peers through the MPI-like message layer (asynchronous
 * sends, any-source receives), exactly as the paper tunes its
 * cluster codes: large (256 KB) I/O requests, deep request queues,
 * and order-independent processing. Results flow to the front-end
 * host over its single 100 Mb/s link.
 */

#ifndef HOWSIM_TASKS_CLUSTER_TASKS_HH
#define HOWSIM_TASKS_CLUSTER_TASKS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "arch/cluster_machine.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"
#include "tasks/task_result.hh"
#include "workload/cost_model.hh"
#include "workload/dataset.hh"

namespace howsim::fault
{
class Injector;
} // namespace howsim::fault

namespace howsim::tasks
{

/** Runs the workload suite on a commodity cluster. */
class ClusterTaskRunner
{
  public:
    ClusterTaskRunner(sim::Simulator &s, arch::ClusterMachine &machine,
                      workload::CostModel costs
                          = workload::CostModel::calibrated());

    /** Execute @p kind over @p data (fresh Simulator per call). */
    TaskResult run(workload::TaskKind kind,
                   const workload::DatasetSpec &data);

    /**
     * Re-entrant variant for the traffic driver: spawns the same
     * workers and joins them without draining the simulator, so
     * several runner instances can execute concurrently on one
     * machine. Each instance must carry a distinct stream id (set
     * @ref setStream before the first call); message tags shift into
     * the stream's band so interleaved queries never consume each
     * other's messages. Timing lands in @ref lastResult;
     * interconnectBytes stays 0 (the fabric is shared).
     */
    sim::Coro<void> runConcurrent(workload::TaskKind kind,
                                  const workload::DatasetSpec &data);

    /** Stream id isolating this instance's tags and barriers. */
    void setStream(int s) { stream = s; }

    /**
     * Fraction of the per-node memory this instance plans with
     * (working-set accounting under concurrency; default 1.0).
     */
    void setMemoryShare(double f) { memShare = f; }

    const TaskResult &lastResult() const { return result; }

    /** Drop this instance's per-stream machine state after a query. */
    void retireStream() { machine.retireStream(stream); }

  private:
    using BlockFn = std::function<sim::Coro<void>(std::uint64_t)>;

    sim::Coro<void> ioProducer(int node, std::uint64_t base,
                               std::uint64_t bytes,
                               sim::Channel<std::uint64_t> *ch);
    sim::Coro<void> streamLocal(int node, std::uint64_t base,
                                std::uint64_t bytes, BlockFn consume);
    sim::Coro<void> emitToFrontend(int node, std::uint64_t bytes,
                                   std::uint64_t *pending, bool flush);
    sim::Coro<void> sendDone(int node, int dst, int tag);
    sim::Coro<void> broadcastDone(int node, int tag);
    sim::Coro<void> frontendConsumer(sim::Tick per_byte_merge_ref);
    sim::Coro<void> shuffleBlock(int node, int *next_dst, int tag);

    /** Per-tuple cost and emission ratio of one scan-family task. */
    struct ScanCosts
    {
        sim::Tick perTuple = 0;
        double emitRatio = 0.0;
    };

    ScanCosts scanCosts(workload::TaskKind kind,
                        const workload::DatasetSpec &data) const;

    sim::Coro<void> scanWorker(int node,
                               const workload::DatasetSpec &data,
                               workload::TaskKind kind);
    sim::Coro<void> sortPartitionWorker(int node,
                                        const workload::DatasetSpec &d);
    sim::Coro<void> sortCollector(int node,
                                  const workload::DatasetSpec &data);
    sim::Coro<void> sortMergeWorker(int node,
                                    const workload::DatasetSpec &data);
    sim::Coro<void> joinWorker(int node,
                               const workload::DatasetSpec &data);
    sim::Coro<void> shuffleCollector(int node, int tag,
                                     std::uint64_t write_base,
                                     sim::Tick per_tuple_ref,
                                     std::uint32_t tuple_bytes,
                                     const char *cpu_bucket);
    sim::Coro<void> dcubeWorker(int node,
                                const workload::DatasetSpec &data);
    sim::Coro<void> dmineWorker(int node,
                                const workload::DatasetSpec &data);
    sim::Coro<void> reduceToFrontend(int node, std::uint64_t bytes,
                                     int tag);
    sim::Coro<void> broadcastFromFrontend(int node,
                                          std::uint64_t bytes);
    sim::Coro<void> mviewWorker(int node,
                                const workload::DatasetSpec &data);
    sim::Coro<void> sortCoordinator();
    sim::Coro<void> dmineFrontend(const workload::DatasetSpec &data);

    /** @name Keyed sort coordination (DESIGN.md §14)
     *
     * launch() pre-spawns every phase's workers — phase 2 parked on
     * a per-node go trigger — and the front-end coordinator counts
     * keyed done-notifications and broadcasts the phase-2 go, one
     * crossLatency() hop each way.
     */
    /** @{ */

    /** Post a keyed done-notification from node @p node. */
    void notifySortDone(int node, int *remaining, sim::Trigger *done);

    /** Run @p body, then notify the front-end coordinator. */
    sim::Coro<void> runAndNotify(sim::Coro<void> body, int node,
                                 int *remaining, sim::Trigger *done);

    /** Park on the phase-2 go trigger, then merge and notify. */
    sim::Coro<void> sortPhase2Worker(int node,
                                     const workload::DatasetSpec &data);
    /** @} */

    sim::Coro<void> computeIn(int node, const char *bucket,
                              sim::Tick ref_ticks);

    /** Fold the per-node shards into `result`, in node order. */
    void foldShards();

    /** Spawn the worker set for @p kind; shared by run paths. */
    std::vector<sim::ProcessRef>
    launch(workload::TaskKind kind, const workload::DatasetSpec &data);

    /** @name Stream-banded message shims */
    /** @{ */
    sim::Coro<void>
    msgSend(int src, int dst, net::Message m)
    {
        m.tag += stream * net::kStreamTagStride;
        return machine.msg().send(src, dst, std::move(m));
    }

    sim::Coro<net::Message> msgRecv(int host, int tag = 0);

    sim::Coro<void>
    barrier(int node)
    {
        return machine.barrier(node, stream);
    }

    /** This instance's share of the per-node user memory. */
    std::uint64_t
    usableMemory() const
    {
        return static_cast<std::uint64_t>(
            memShare
            * static_cast<double>(
                machine.params().usableMemoryBytes));
    }
    /** @} */

    int size() const { return machine.size(); }

    sim::Simulator &simulator;
    arch::ClusterMachine &machine;
    workload::CostModel cm;
    TaskResult result;

    /**
     * Per-node result shards: node n's workers write only
     * shards[n]; run()/runConcurrent fold them into `result` in
     * node order after the run. The fixed fold order pins the
     * floating-point bucket sums, and with them the figures' bits.
     * Front-end writers touch `result` directly.
     */
    std::vector<TaskResult> shards;

    // Keyed coordination streams, allocated in fixed order at
    // construction: doneKeys[n] for node n's notifications,
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
    int stream = 0;
    double memShare = 1.0;

    // Fail-stop needs no runner state: dead nodes' shares keep
    // running and the machine hardware-redirects their operations to
    // the takeover peer (ClusterMachine::route), so every task gets
    // the degraded path for free.
};

} // namespace howsim::tasks

#endif // HOWSIM_TASKS_CLUSTER_TASKS_HH
