/**
 * @file
 * Integration tests for the observability subsystem: session install
 * semantics, simulator clock binding, instrumentation agreement with
 * the task runners' own accounting, env-driven file output, and the
 * guarantee that observability never perturbs simulated time.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "diskos/active_disk_array.hh"
#include "obs/obs.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"
#include "tasks/ad_tasks.hh"
#include "workload/dataset.hh"

using namespace howsim;
using workload::DatasetSpec;
using workload::TaskKind;

namespace
{

/** Scrub the obs env switches so ambient state can't leak in. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("HOWSIM_TRACE_DIR");
        unsetenv("HOWSIM_METRICS");
        unsetenv("HOWSIM_TRACE_DETAIL");
        unsetenv("HOWSIM_OBS_INTERVAL_US");
    }

    void TearDown() override { SetUp(); }
};

tasks::TaskResult
runSort(int ndisks)
{
    sim::Simulator simulator;
    diskos::ActiveDiskArray machine(simulator, ndisks,
                                    disk::DiskSpec::seagateSt39102());
    tasks::AdTaskRunner runner(simulator, machine);
    return runner.run(TaskKind::Sort,
                      DatasetSpec::forTask(TaskKind::Sort));
}

} // namespace

TEST_F(ObsTest, DisabledByDefault)
{
    EXPECT_EQ(obs::session(), nullptr);
    EXPECT_FALSE(obs::enabled());
    obs::Span span("track", "name");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(obs::Session::fromEnv("x"), nullptr);
}

TEST_F(ObsTest, SessionsInstallAndNest)
{
    {
        obs::Session outer("outer", {});
        EXPECT_EQ(obs::session(), &outer);
        {
            obs::Session inner("inner", {});
            EXPECT_EQ(obs::session(), &inner);
        }
        EXPECT_EQ(obs::session(), &outer);
    }
    EXPECT_EQ(obs::session(), nullptr);
}

TEST_F(ObsTest, SimulatorBindsTheClock)
{
    obs::Session session("clock", {});
    EXPECT_EQ(session.now(), 0u);
    sim::Simulator simulator;
    simulator.spawn([]() -> sim::Coro<void> {
        co_await sim::delay(1000);
    }());
    simulator.run();
    EXPECT_EQ(session.now(), 1000u);
}

TEST_F(ObsTest, SpanDurationIsSimulatedTime)
{
    obs::Session session("span", {});
    sim::Simulator simulator;
    simulator.spawn([]() -> sim::Coro<void> {
        obs::Span span("work", "busy");
        co_await sim::delay(250);
    }());
    simulator.run();
    bool found = false;
    for (const auto &ev : session.trace().allEvents()) {
        if (ev.ph == 'X' && ev.name == "busy") {
            EXPECT_EQ(ev.ts, 0u);
            EXPECT_EQ(ev.dur, 250u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ObsTest, DetachedProcessSpansAppearAtFineDetailOnly)
{
    for (obs::Detail detail : {obs::Detail::Coarse, obs::Detail::Fine}) {
        obs::Session::Options opts;
        opts.detail = detail;
        obs::Session session("detached", opts);
        sim::Simulator simulator;
        simulator.scheduleAt(100, [&simulator] {
            simulator.spawnDetached(
                []() -> sim::Coro<void> { co_await sim::delay(250); }(),
                "leg");
        });
        simulator.run();
        int begins = 0, ends = 0;
        std::uint64_t beginId = 0;
        for (const auto &ev : session.trace().allEvents()) {
            if (ev.name != "leg")
                continue;
            if (ev.ph == 'b') {
                ++begins;
                beginId = ev.id;
                EXPECT_EQ(ev.ts, 100u);
            } else if (ev.ph == 'e') {
                ++ends;
                EXPECT_EQ(ev.id, beginId);
                EXPECT_EQ(ev.ts, 350u);
            }
        }
        const int want = detail == obs::Detail::Fine ? 1 : 0;
        EXPECT_EQ(begins, want);
        EXPECT_EQ(ends, want);
    }
}

TEST_F(ObsTest, PhaseSpansAgreeWithBreakdownBuckets)
{
    obs::Session session("sortspans", {});
    auto result = runSort(8);

    const obs::TraceSink &sink = session.trace();
    double p1 = -1.0, p2 = -1.0;
    for (const auto &ev : sink.allEvents()) {
        if (ev.ph != 'X' || sink.trackName(ev.tid) != "phases")
            continue;
        if (ev.name == "p1")
            p1 = sim::toSeconds(ev.dur);
        else if (ev.name == "p2")
            p2 = sim::toSeconds(ev.dur);
    }
    // The spans bracket exactly what the Figure 3 buckets measure.
    EXPECT_DOUBLE_EQ(p1, result.buckets.get("p1.elapsed"));
    EXPECT_DOUBLE_EQ(p2, result.buckets.get("p2.elapsed"));
    EXPECT_GT(p1, 0.0);
    EXPECT_GT(p2, 0.0);
}

TEST_F(ObsTest, DiskMetricsAccountForTheRun)
{
    obs::Session session("diskmetrics", {});
    runSort(8);
    obs::MetricRegistry &metrics = session.metrics();
    std::uint64_t requests = metrics.counter("ad0.requests").value();
    EXPECT_GT(requests, 0u);
    // Every request contributes one service-time sample.
    EXPECT_EQ(metrics.histogram("ad0.service_ticks").count(),
              requests);
    EXPECT_GT(metrics.counter("ad0.bytes_read").value(), 0u);
    EXPECT_GT(metrics.gauge("sim.events_executed").value(), 0.0);
}

TEST_F(ObsTest, ObservabilityDoesNotPerturbSimulatedTime)
{
    auto bare = runSort(8);
    sim::Tick observed_ticks = 0;
    {
        obs::Session session("perturb", {});
        observed_ticks = runSort(8).elapsedTicks;
    }
    EXPECT_EQ(bare.elapsedTicks, observed_ticks);
}

TEST_F(ObsTest, FromEnvWritesTraceAndMetricsFiles)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "howsim_obs_test";
    std::filesystem::remove_all(dir);
    setenv("HOWSIM_TRACE_DIR", dir.c_str(), 1);
    setenv("HOWSIM_METRICS", dir.c_str(), 1);

    {
        auto session = obs::Session::fromEnv("exp0");
        ASSERT_NE(session, nullptr);
        sim::Simulator simulator;
        simulator.spawn([]() -> sim::Coro<void> {
            obs::Span span("work", "step");
            co_await sim::delay(10);
        }());
        simulator.run();
    }

    auto slurp = [](const std::filesystem::path &p) {
        std::ifstream f(p);
        std::stringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };
    std::string trace = slurp(dir / "exp0.trace.json");
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"step\""), std::string::npos);
    std::string metrics = slurp(dir / "exp0.metrics.json");
    EXPECT_NE(metrics.find("\"gauges\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, FineDetailComesFromEnv)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "howsim_obs_detail";
    setenv("HOWSIM_TRACE_DIR", dir.c_str(), 1);
    auto coarse = obs::Session::fromEnv("a");
    ASSERT_NE(coarse, nullptr);
    EXPECT_FALSE(coarse->fine());
    coarse.reset();

    setenv("HOWSIM_TRACE_DETAIL", "fine", 1);
    auto fine = obs::Session::fromEnv("b");
    ASSERT_NE(fine, nullptr);
    EXPECT_TRUE(fine->fine());
    fine.reset();
    std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, DumpDropsProbesSoOwnersMayDie)
{
    obs::Session session("probes", {});
    int x = 3;
    session.timeline().probe("x", [&x] { return double(x); }, &x);
    EXPECT_EQ(session.timeline().probeCount(), 1u);
    session.dump();
    EXPECT_EQ(session.timeline().probeCount(), 0u);
}
