/**
 * @file Traffic driver behavior: determinism of the timeline across
 * repeat runs and worker-thread counts, open- and closed-loop smoke
 * on all three architectures, admission control, and faulted-plan
 * stability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "traffic/driver.hh"
#include "traffic/plan.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using traffic::TrafficResult;

namespace
{

constexpr const char *kOpenSpec
    = "seed=7,loop=open,arrival=poisson,rate=100,duration.ms=80,"
      "max.inflight=3,mix.select=2,mix.groupby=1,"
      "cap.select=0.002,cap.groupby=0.002";

ExperimentConfig
configFor(Arch arch, const char *spec)
{
    ExperimentConfig config;
    config.arch = arch;
    config.scale = 4;
    config.traffic = spec;
    return config;
}

/**
 * Run four copies of @p config through core::runExperiments' seam on
 * @p jobs worker threads; at jobs=4 the copies run concurrently.
 */
std::vector<TrafficResult>
runCopies(const ExperimentConfig &config, int jobs)
{
    std::vector<ExperimentConfig> batch(4, config);
    std::vector<TrafficResult> out(batch.size());
    core::runExperiments(
        batch,
        [&](const ExperimentConfig &c) {
            out[static_cast<std::size_t>(&c - batch.data())]
                = traffic::runTraffic(c);
            return tasks::TaskResult{};
        },
        jobs);
    return out;
}

} // namespace

TEST(TrafficDriver, OpenLoopSmokeOnEveryArchitecture)
{
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        TrafficResult r
            = traffic::runTraffic(configFor(arch, kOpenSpec));
        EXPECT_GT(r.submitted, 0u) << core::archName(arch);
        EXPECT_EQ(r.rejected, 0u) << core::archName(arch);
        // Unbounded queue: every submission eventually completes.
        EXPECT_EQ(r.completed, r.submitted) << core::archName(arch);
        EXPECT_LE(r.peakInflight, 3) << core::archName(arch);
        EXPECT_GT(r.lastCompletion, 0u) << core::archName(arch);
        ASSERT_EQ(r.classes.size(), 2u);
        std::uint64_t perClass = 0;
        for (const auto &c : r.classes) {
            perClass += c.completed;
            EXPECT_LE(c.p50, c.p95);
            EXPECT_LE(c.p95, c.p99);
            EXPECT_LE(c.p99, c.maxLatency);
        }
        EXPECT_EQ(perClass, r.completed);
    }
}

TEST(TrafficDriver, TimelineIsBitIdenticalAcrossHostKnobs)
{
    ExperimentConfig base = configFor(Arch::ActiveDisk, kOpenSpec);
    TrafficResult ref = traffic::runTraffic(base);
    ASSERT_GT(ref.completed, 0u);

    for (int jobs : {1, 4}) {
        for (const TrafficResult &got : runCopies(base, jobs)) {
            EXPECT_EQ(got.fingerprint, ref.fingerprint)
                << "jobs " << jobs;
            EXPECT_EQ(got.completed, ref.completed);
            EXPECT_EQ(got.lastCompletion, ref.lastCompletion);
            ASSERT_EQ(got.classes.size(), ref.classes.size());
            for (std::size_t c = 0; c < ref.classes.size(); ++c) {
                EXPECT_EQ(got.classes[c].p50, ref.classes[c].p50);
                EXPECT_EQ(got.classes[c].p99, ref.classes[c].p99);
            }
        }
    }
}

TEST(TrafficDriver, RepeatRunsAreBitIdentical)
{
    ExperimentConfig config = configFor(Arch::Cluster, kOpenSpec);
    TrafficResult a = traffic::runTraffic(config);
    TrafficResult b = traffic::runTraffic(config);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.lastCompletion, b.lastCompletion);
}

TEST(TrafficDriver, ClosedLoopClientsResubmitAfterThink)
{
    ExperimentConfig config = configFor(
        Arch::ActiveDisk,
        "seed=3,loop=closed,clients=3,think.ms=1,duration.ms=60,"
        "max.inflight=2,mix.select=1,cap.select=0.002");
    TrafficResult r = traffic::runTraffic(config);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.completed, r.submitted);
    // Concurrency is capped by both clients and max.inflight.
    EXPECT_LE(r.peakInflight, 2);
}

TEST(TrafficDriver, TraceArrivalsSubmitExactlyTheInstantsInWindow)
{
    ExperimentConfig config = configFor(
        Arch::Smp,
        "seed=1,arrival=trace,trace.ms=0;5;10;500,duration.ms=100,"
        "mix.select=1,cap.select=0.002");
    TrafficResult r = traffic::runTraffic(config);
    // The 500 ms instant falls outside the 100 ms window.
    EXPECT_EQ(r.submitted, 3u);
    EXPECT_EQ(r.completed, 3u);
}

TEST(TrafficDriver, MaxInflightOneSerializesExecution)
{
    ExperimentConfig config = configFor(
        Arch::ActiveDisk,
        "seed=7,rate=200,duration.ms=50,max.inflight=1,"
        "mix.select=1,cap.select=0.002");
    TrafficResult r = traffic::runTraffic(config);
    ASSERT_GT(r.completed, 1u);
    EXPECT_EQ(r.peakInflight, 1);
}

TEST(TrafficDriver, BoundedQueueRejectsOverflow)
{
    ExperimentConfig config = configFor(
        Arch::ActiveDisk,
        "seed=7,rate=500,duration.ms=60,max.inflight=1,max.queue=1,"
        "mix.select=1,cap.select=0.002");
    TrafficResult r = traffic::runTraffic(config);
    EXPECT_GT(r.rejected, 0u);
    EXPECT_EQ(r.submitted, r.completed + r.rejected);
    EXPECT_LE(r.peakQueued, 1u);
}

TEST(TrafficDriver, FairPolicyCompletesEveryAdmittedQuery)
{
    ExperimentConfig config = configFor(
        Arch::Cluster,
        "seed=9,rate=150,duration.ms=60,policy=fair,max.inflight=2,"
        "mix.select=3,mix.groupby=1,share.select=1,share.groupby=3,"
        "cap.select=0.002,cap.groupby=0.002");
    TrafficResult r = traffic::runTraffic(config);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.completed, r.submitted);
}

TEST(TrafficDriver, FaultedPlanStaysDeterministic)
{
    ExperimentConfig config = configFor(Arch::Cluster, kOpenSpec);
    config.faults = "seed=11,disk.media.rate=5e-3,"
                    "net.drop.rate=1e-3";
    TrafficResult a = traffic::runTraffic(config);
    EXPECT_GT(a.completed, 0u);
    for (const TrafficResult &b : runCopies(config, 4)) {
        EXPECT_EQ(a.fingerprint, b.fingerprint);
        EXPECT_EQ(a.lastCompletion, b.lastCompletion);
    }
}

TEST(TrafficDriver, NetFaultedPlanOnActiveDisksStaysDeterministic)
{
    // A net fault plan makes the Active Disk array look up the obs
    // session while it is built inside runTraffic: the path the
    // sanitizer job must see.
    ExperimentConfig config = configFor(Arch::ActiveDisk, kOpenSpec);
    config.faults = "seed=11,disk.media.rate=5e-3,"
                    "net.drop.rate=1e-3";
    TrafficResult a = traffic::runTraffic(config);
    TrafficResult b = traffic::runTraffic(config);
    EXPECT_GT(a.completed, 0u);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.lastCompletion, b.lastCompletion);
}

TEST(TrafficDriverDeath, MissingPlanIsFatal)
{
    unsetenv("HOWSIM_TRAFFIC");
    ExperimentConfig config;
    config.scale = 4;
    EXPECT_DEATH(traffic::runTraffic(config), "no traffic plan");
}

TEST(TrafficDriver, FailStopRetriesOverlappingQueriesExactlyOnce)
{
    // A death mid-window: queries whose first attempt spans the
    // death instant retry exactly once, everything completes, and
    // which queries retried is a pure function of the plan — so the
    // retried count and the timeline are identical across host
    // knobs.
    ExperimentConfig config = configFor(Arch::ActiveDisk, kOpenSpec);
    config.faults = "stop.disk=1,stop.at.ms=30,hb.period.ms=2";
    TrafficResult a = traffic::runTraffic(config);
    EXPECT_EQ(a.completed, a.submitted);
    EXPECT_GT(a.retried, 0u);
    // Exactly once: each retry contributes one extra execution, never
    // more, so retried can never exceed completed.
    EXPECT_LE(a.retried, a.completed);

    for (const TrafficResult &b : runCopies(config, 4)) {
        EXPECT_EQ(a.fingerprint, b.fingerprint);
        EXPECT_EQ(a.retried, b.retried);
        EXPECT_EQ(a.lastCompletion, b.lastCompletion);
    }
}

TEST(TrafficDriver, SloShedsDoomedQueriesUnderDegradedMachine)
{
    // Overload a degraded machine behind a tight SLO: queries whose
    // queueing delay alone blows the objective are shed at admission
    // (not rejected at submission), and shedding is deterministic.
    ExperimentConfig config = configFor(Arch::ActiveDisk, kOpenSpec);
    config.traffic = "seed=7,loop=open,arrival=poisson,rate=400,"
                     "duration.ms=80,max.inflight=1,slo.ms=15,"
                     "mix.select=1,cap.select=0.002";
    config.faults = "stop.disk=1,stop.at.ms=10,hb.period.ms=2";
    TrafficResult a = traffic::runTraffic(config);
    EXPECT_GT(a.shed, 0u);
    EXPECT_EQ(a.completed + a.shed, a.submitted);

    for (const TrafficResult &b : runCopies(config, 4)) {
        EXPECT_EQ(a.shed, b.shed);
        EXPECT_EQ(a.fingerprint, b.fingerprint);
    }
}
