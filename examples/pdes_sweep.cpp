/**
 * @file
 * Parallel-DES head-to-head: run a Figure-1 slice (select on the
 * Active Disk array) and a genuinely multi-partition synthetic
 * workload at HOWSIM_PDES = {1, 2, 4}, reporting wall-clock speedup
 * over serial, the barrier-stall fraction, and the window/mailbox
 * counts — and verifying that every setting produced the same
 * simulated result.
 *
 * Two things worth knowing before reading the numbers (docs/perf.md
 * covers both):
 *
 *  - The paper machines declare one domain per device (DESIGN.md
 *    §14's domain maps), so the figure slice fans the drive models
 *    out across partitions for real. Speedup is bounded by the
 *    host-domain share of the work (the front-end and interconnect
 *    stay on partition 0) and by the window rate: the stall column
 *    is the tell. Event-dominated shapes — many drives, small
 *    requests — scale best.
 *
 *  - The synthetic workload homes independent process groups on every
 *    partition (Simulator::spawnOn) exchanging mailbox events
 *    (Simulator::postCross): near-linear fan-out, the executive's
 *    best case. On a 1-CPU container both sections time-share one
 *    core and the stall fraction is the honest cost of pretending
 *    otherwise — expect <= 1x there, not a regression.
 *
 * Usage: pdes_sweep [--quick] [scale]
 *   --quick shrinks both sections for the CI smoke: it checks
 *   bit-identity and prints speedups without gating on them.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/experiment.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/partition.hh"
#include "sim/simulator.hh"
#include "workload/task_kind.hh"

using namespace howsim;

namespace
{

double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One Figure-1 cell (select on the AD array) at a partition count. */
void
figureSlice(int scale)
{
    std::printf("figure-1 slice: select, active disks, scale %d\n",
                scale);
    std::printf("  %5s %12s %9s %9s %8s\n", "pdes", "result", "wall",
                "speedup", "stall");
    double serialWall = 0;
    sim::Tick serialResult = 0;
    for (int pdes : {1, 2, 4}) {
        if (pdes > scale)
            continue;
        core::ExperimentConfig config;
        config.arch = core::Arch::ActiveDisk;
        config.task = workload::TaskKind::Select;
        config.scale = scale;
        config.pdes = pdes;
        auto start = std::chrono::steady_clock::now();
        tasks::TaskResult result = core::runExperiment(config);
        double wall = wallSeconds(start);
        if (pdes == 1) {
            serialWall = wall;
            serialResult = result.elapsedTicks;
        } else if (result.elapsedTicks != serialResult) {
            std::fprintf(stderr,
                         "BUG: pdes=%d diverged from serial\n", pdes);
            std::exit(1);
        }
        std::printf("  %5d %10.3fs %8.2fs %8.2fx %7.1f%%%s\n", pdes,
                    sim::toSeconds(result.elapsedTicks), wall,
                    serialWall / wall,
                    result.pdes.stallFraction() * 100.0,
                    pdes == 1 ? "  (baseline)" : "");
    }
    std::printf("  all partition counts produced identical results\n");
}

/**
 * The fan-out case: independent event-cascade groups homed one per
 * partition, exchanging cross-partition pings a full lookahead ahead
 * — the shape the windowed executive can actually parallelize.
 */
void
syntheticSweep(int hops)
{
    constexpr sim::Tick lookahead = sim::microseconds(10);
    constexpr int groups = 4;
    std::printf("\nsynthetic multi-partition cascade: %d groups x %d "
                "hops\n", groups, hops);
    std::printf("  %5s %8s %9s %9s %8s %10s\n", "pdes", "wall",
                "speedup", "windows", "mailbox", "stall");
    double serialWall = 0;
    for (int pdes : {1, 2, 4}) {
        sim::Simulator simulator(pdes);
        simulator.setLookahead(lookahead);
        std::vector<std::uint64_t> delivered(
            static_cast<std::size_t>(pdes));
        auto group = [&, pdes](int logical) -> sim::Coro<void> {
            for (int hop = 0; hop < hops; ++hop) {
                co_await sim::delay(1 + static_cast<sim::Tick>(
                                        logical % 3));
                sim::Simulator &s = *sim::Simulator::current();
                int target = ((logical + 1) % groups) % pdes;
                s.postCross(target, s.now() + lookahead,
                            [&delivered, target] {
                                ++delivered[static_cast<std::size_t>(
                                    target)];
                            });
            }
        };
        std::vector<sim::ProcessRef> procs;
        for (int logical = 0; logical < groups; ++logical) {
            procs.push_back(simulator.spawnOn(
                logical % pdes, group(logical), "cascade"));
        }
        auto start = std::chrono::steady_clock::now();
        simulator.run();
        double wall = wallSeconds(start);
        if (pdes == 1)
            serialWall = wall;
        std::uint64_t total = 0;
        for (std::uint64_t d : delivered)
            total += d;
        if (total != static_cast<std::uint64_t>(groups) * hops) {
            std::fprintf(stderr, "BUG: lost mailbox events\n");
            std::exit(1);
        }
        sim::PdesStats stats = simulator.pdesStats();
        std::printf("  %5d %7.2fs %8.2fx %9llu %8llu %8.1f%%\n", pdes,
                    wall, serialWall / wall,
                    static_cast<unsigned long long>(stats.windows),
                    static_cast<unsigned long long>(
                        stats.mailboxEvents),
                    stats.stallFraction() * 100.0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int scale = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            scale = std::atoi(argv[i]);
    }
    if (scale == 0)
        scale = quick ? 8 : 16;
    if (scale <= 0) {
        std::fprintf(stderr,
                     "usage: pdes_sweep [--quick] [scale>0]\n");
        return 1;
    }
    figureSlice(scale);
    syntheticSweep(quick ? 15000 : 60000);
    return 0;
}
