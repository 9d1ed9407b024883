/** @file Calibration and property tests for the seek-time model. */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "disk/disk_spec.hh"
#include "disk/seek_curve.hh"
#include "sim/ticks.hh"

using namespace howsim::disk;
using howsim::sim::toMilliseconds;

namespace howsim::disk
{

/** Print a spec by its model name. Without this, gtest dumps the raw
 *  bytes, heap pointers included, and the listed test names change
 *  from one run of the binary to the next. */
void
PrintTo(const DiskSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

} // namespace howsim::disk

class SeekCurveTest : public ::testing::TestWithParam<DiskSpec>
{
};

TEST_P(SeekCurveTest, ZeroDistanceIsFree)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    EXPECT_EQ(curve.seekTicks(0), 0u);
    EXPECT_EQ(curve.seekTicks(0, true), 0u);
}

TEST_P(SeekCurveTest, SingleCylinderMatchesTrackToTrack)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    EXPECT_NEAR(toMilliseconds(curve.seekTicks(1)),
                spec.trackToTrackMs, 0.01);
}

TEST_P(SeekCurveTest, FullStrokeMatchesMaxSeek)
{
    DiskSpec spec = GetParam();
    std::uint32_t cyls = spec.totalCylinders();
    SeekCurve curve(spec, cyls);
    EXPECT_NEAR(toMilliseconds(curve.seekTicks(cyls - 1)),
                spec.maxSeekMs, 0.05);
}

TEST_P(SeekCurveTest, MeanMatchesPublishedAverage)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    EXPECT_NEAR(curve.meanSeekMs(), spec.avgSeekMs, 0.05);
}

TEST_P(SeekCurveTest, MonotoneNondecreasing)
{
    DiskSpec spec = GetParam();
    std::uint32_t cyls = spec.totalCylinders();
    SeekCurve curve(spec, cyls);
    howsim::sim::Tick prev = 0;
    for (std::uint32_t d = 1; d < cyls; d += 37) {
        howsim::sim::Tick t = curve.seekTicks(d);
        EXPECT_GE(t, prev) << "at distance " << d;
        prev = t;
    }
}

TEST_P(SeekCurveTest, WritesSlowerThanReads)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    for (std::uint32_t d : {1u, 100u, 1000u}) {
        EXPECT_NEAR(toMilliseconds(curve.seekTicks(d, true))
                        - toMilliseconds(curve.seekTicks(d, false)),
                    spec.writeSeekPenaltyMs, 0.01);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Drives, SeekCurveTest,
    ::testing::Values(DiskSpec::seagateSt39102(),
                      DiskSpec::hitachiDk3e1t91()),
    [](const ::testing::TestParamInfo<DiskSpec> &info) {
        return info.index == 0 ? "Seagate" : "Hitachi";
    });

// One fitted table per drive model: curves for the same seek figures
// share it, and sharing must not change a single tick.

namespace
{

/** Every read and write tick of @p curve, distances [0, cyls). */
std::vector<howsim::sim::Tick>
allTicks(const SeekCurve &curve, std::uint32_t cyls)
{
    std::vector<howsim::sim::Tick> ticks;
    ticks.reserve(2 * std::size_t{cyls});
    for (std::uint32_t d = 0; d < cyls; ++d) {
        ticks.push_back(curve.seekTicks(d, false));
        ticks.push_back(curve.seekTicks(d, true));
    }
    return ticks;
}

} // namespace

TEST(SeekCurveSharing, CurvesForOneSpecShareATable)
{
    DiskSpec spec = DiskSpec::seagateSt39102();
    std::uint32_t cyls = spec.totalCylinders();
    SeekCurve a(spec, cyls);
    DiskSpec renamed = spec;
    renamed.name = "same figures, other name";
    SeekCurve b(renamed, cyls);
    EXPECT_EQ(a.tableIdentity(), b.tableIdentity());
    SeekCurve copy = a;
    EXPECT_EQ(copy.tableIdentity(), a.tableIdentity());
}

TEST(SeekCurveSharing, SharedTicksEqualAFreshFit)
{
    DiskSpec spec = DiskSpec::seagateSt39102();
    std::uint32_t cyls = spec.totalCylinders();
    std::vector<howsim::sim::Tick> fresh;
    double coefs[3];
    {
        // The only live curve for this spec: its table is fitted here
        // and dies with it.
        SeekCurve solo(spec, cyls);
        fresh = allTicks(solo, cyls);
        coefs[0] = solo.coefA();
        coefs[1] = solo.coefB();
        coefs[2] = solo.coefC();
    }
    SeekCurve first(spec, cyls);
    SeekCurve second(spec, cyls);
    ASSERT_EQ(first.tableIdentity(), second.tableIdentity());
    EXPECT_EQ(allTicks(second, cyls), fresh);
    EXPECT_EQ(second.coefA(), coefs[0]);
    EXPECT_EQ(second.coefB(), coefs[1]);
    EXPECT_EQ(second.coefC(), coefs[2]);
    // Cross-check the tabulation against the closed form.
    for (std::uint32_t d : {1u, 2u, 100u, 5000u, cyls - 1}) {
        double ms = coefs[0] + coefs[1] * std::sqrt(double(d))
                    + coefs[2] * double(d);
        EXPECT_EQ(second.seekTicks(d), howsim::sim::fromSeconds(ms * 1e-3));
        EXPECT_EQ(second.seekTicks(d, true),
                  howsim::sim::fromSeconds(
                      (ms + spec.writeSeekPenaltyMs) * 1e-3));
    }
}

TEST(SeekCurveSharing, OneDifferentFieldGetsItsOwnTable)
{
    DiskSpec base = DiskSpec::seagateSt39102();
    std::uint32_t cyls = base.totalCylinders();
    SeekCurve ref(base, cyls);
    std::vector<howsim::sim::Tick> refTicks = allTicks(ref, cyls);

    auto variant = [&](auto tweak, std::uint32_t c) {
        DiskSpec spec = base;
        tweak(spec);
        SeekCurve curve(spec, c);
        EXPECT_NE(curve.tableIdentity(), ref.tableIdentity());
        return curve;
    };
    SeekCurve t2t = variant([](DiskSpec &s) { s.trackToTrackMs += 0.1; },
                            cyls);
    EXPECT_NE(t2t.seekTicks(1), ref.seekTicks(1));
    SeekCurve avg = variant([](DiskSpec &s) { s.avgSeekMs += 0.1; }, cyls);
    EXPECT_NE(avg.seekTicks(cyls / 3), ref.seekTicks(cyls / 3));
    SeekCurve max = variant([](DiskSpec &s) { s.maxSeekMs += 0.1; }, cyls);
    EXPECT_NE(max.seekTicks(cyls - 1), ref.seekTicks(cyls - 1));
    SeekCurve pen = variant(
        [](DiskSpec &s) { s.writeSeekPenaltyMs += 0.1; }, cyls);
    EXPECT_EQ(pen.seekTicks(100), ref.seekTicks(100));
    EXPECT_NE(pen.seekTicks(100, true), ref.seekTicks(100, true));
    SeekCurve fewer = variant([](DiskSpec &) {}, cyls - 1);
    EXPECT_NE(fewer.seekTicks(cyls - 2), ref.seekTicks(cyls - 2));

    // None of the variants disturbed the reference table.
    EXPECT_EQ(allTicks(ref, cyls), refTicks);
}

TEST(SeekCurveSharing, ConcurrentConstructionsGetOneTable)
{
    DiskSpec spec = DiskSpec::seagateSt39102();
    spec.avgSeekMs += 0.01; // a model no other test holds
    std::uint32_t cyls = spec.totalCylinders();
    constexpr int threads = 4;
    std::vector<std::optional<SeekCurve>> curves(threads);
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
        pool.emplace_back([&, i] {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            curves[static_cast<std::size_t>(i)].emplace(spec, cyls);
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (const auto &curve : curves)
        EXPECT_EQ(curve->tableIdentity(), curves[0]->tableIdentity());
    EXPECT_EQ(allTicks(*curves[3], cyls), allTicks(*curves[0], cyls));
}
