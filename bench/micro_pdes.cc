/**
 * @file
 * Parallel-executive microbenchmark: fan-out behaviour of the
 * windowed PDES executive (DESIGN.md §14) on the two shapes that
 * matter, each at pdes = 1/2/4:
 *
 *  1. A synthetic per-partition cascade — independent event groups
 *     homed one per partition, exchanging mailbox pings a full
 *     lookahead ahead. The executive's best case: event-dominated,
 *     minimal cross-partition coupling.
 *
 *  2. A machine fan-out slice — select on the Active Disk array,
 *     which declares one partition domain per drive, so the drive
 *     models genuinely spread across workers while the front-end and
 *     loop serialize on partition 0.
 *
 * Every entry lands in BENCH_events.json; read the pdes>1 rows
 * against hardware_concurrency (docs/perf.md): on a 1-CPU host they
 * measure the executive's time-sharing overhead, not speedup, and a
 * sub-1x "speedup" there is expected. Simulated-result divergence
 * from serial is a hard failure at any setting.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/bench_harness.hh"
#include "core/experiment.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/partition.hh"
#include "sim/simulator.hh"
#include "workload/task_kind.hh"

using namespace howsim;

namespace
{

constexpr int kPdesSettings[] = {1, 2, 4};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One cascade run; returns delivered events per wall second. */
double
cascadeRun(int pdes, int hops, double *stallPct)
{
    constexpr sim::Tick lookahead = sim::microseconds(10);
    constexpr int groups = 4;
    sim::Simulator simulator(pdes);
    simulator.setLookahead(lookahead);
    std::vector<std::uint64_t> delivered(
        static_cast<std::size_t>(pdes));
    auto group = [&, pdes](int logical) -> sim::Coro<void> {
        for (int hop = 0; hop < hops; ++hop) {
            co_await sim::delay(1
                                + static_cast<sim::Tick>(logical % 3));
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
        procs.push_back(simulator.spawnOn(logical % pdes,
                                          group(logical), "cascade"));
    }
    auto start = std::chrono::steady_clock::now();
    simulator.run();
    double wall = secondsSince(start);
    std::uint64_t total = 0;
    for (std::uint64_t d : delivered)
        total += d;
    if (total != static_cast<std::uint64_t>(groups) * hops) {
        std::fprintf(stderr, "BUG: lost mailbox events at pdes=%d\n",
                     pdes);
        std::exit(1);
    }
    *stallPct = simulator.pdesStats().stallFraction() * 100.0;
    return static_cast<double>(total) / wall;
}

/** One machine slice; returns wall seconds, checks bit-identity. */
double
machineRun(int pdes, sim::Tick *elapsed, double *stallPct)
{
    core::ExperimentConfig config;
    config.arch = core::Arch::ActiveDisk;
    config.task = workload::TaskKind::Select;
    config.scale = 8;
    config.pdes = pdes;
    auto start = std::chrono::steady_clock::now();
    tasks::TaskResult result = core::runExperiment(config);
    double wall = secondsSince(start);
    *elapsed = result.elapsedTicks;
    *stallPct = result.pdes.stallFraction() * 100.0;
    return wall;
}

} // namespace

int
main()
{
    core::BenchHarness harness("micro_pdes");

    std::printf("micro_pdes: windowed-executive fan-out "
                "(hardware_concurrency=%u)\n",
                std::thread::hardware_concurrency());

    std::printf("\ncascade (4 groups x 60000 hops)\n");
    std::printf("  %5s %14s %9s %8s\n", "pdes", "events/s", "speedup",
                "stall");
    double cascadeSerial = 0;
    for (int pdes : kPdesSettings) {
        double stall = 0;
        double rate = cascadeRun(pdes, 60000, &stall);
        if (pdes == 1)
            cascadeSerial = rate;
        std::string tag = "cascade_p" + std::to_string(pdes);
        harness.metric(tag + "_events_per_sec", rate);
        if (pdes > 1) {
            harness.metric(tag + "_speedup_pct",
                           100.0 * rate / cascadeSerial);
            harness.metric(tag + "_stall_pct", stall);
        }
        std::printf("  %5d %14.0f %8.2fx %7.1f%%\n", pdes, rate,
                    rate / cascadeSerial, stall);
    }

    std::printf("\nmachine slice (select, active disks, 8 drives)\n");
    std::printf("  %5s %9s %9s %8s\n", "pdes", "wall", "speedup",
                "stall");
    double machineSerial = 0;
    sim::Tick serialElapsed = 0;
    for (int pdes : kPdesSettings) {
        sim::Tick elapsed = 0;
        double stall = 0;
        double wall = machineRun(pdes, &elapsed, &stall);
        if (pdes == 1) {
            machineSerial = wall;
            serialElapsed = elapsed;
        } else if (elapsed != serialElapsed) {
            std::fprintf(stderr,
                         "BUG: pdes=%d diverged from serial\n", pdes);
            return 1;
        }
        std::string tag = "machine_p" + std::to_string(pdes);
        harness.metric(tag + "_wall_seconds", wall);
        if (pdes > 1) {
            harness.metric(tag + "_speedup_pct",
                           100.0 * machineSerial / wall);
            harness.metric(tag + "_stall_pct", stall);
        }
        std::printf("  %5d %8.2fs %8.2fx %7.1f%%\n", pdes, wall,
                    machineSerial / wall, stall);
    }
    std::printf("\nall partition counts produced identical results\n");
    return 0;
}
