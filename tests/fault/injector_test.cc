/**
 * @file Injector decision function: counter-based hashing makes every
 * decision a pure function of (seed, site, seq, attempt), which is
 * what the cross-policy and serial-vs-parallel reproducibility
 * guarantees rest on.
 */

#include <gtest/gtest.h>

#include <set>

#include "fault/fault.hh"

using namespace howsim;
using fault::FaultPlan;
using fault::Injector;

namespace
{

FaultPlan
allFaultsPlan()
{
    return FaultPlan::parse(
        "seed=42,disk.slow.frac=0.3,disk.media.rate=0.2,"
        "disk.remap.rate=0.1,net.drop.rate=0.15,net.corrupt.rate=0.1");
}

} // namespace

TEST(Injector, DecisionsArePureFunctionsOfTheirInputs)
{
    // Same plan, same (site, seq, attempt) => same answer, no matter
    // how many times or in what order the question is asked. This is
    // the property that keeps fault runs identical across worker
    // threads.
    Injector a(allFaultsPlan());
    Injector b(allFaultsPlan());
    std::uint64_t site = fault::siteId("disk3");
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
        EXPECT_EQ(a.diskMediaRetryCount(site, seq),
                  b.diskMediaRetryCount(site, seq));
        EXPECT_EQ(a.diskRemapHit(site, seq), b.diskRemapHit(site, seq));
        EXPECT_EQ(a.netAttempt(site, seq, 0), b.netAttempt(site, seq, 0));
    }
    // Re-asking in reverse order changes nothing: no hidden state.
    for (std::uint64_t seq = 200; seq-- > 0;)
        EXPECT_EQ(a.diskMediaRetryCount(site, seq),
                  b.diskMediaRetryCount(site, seq));
}

TEST(Injector, DifferentSeedsGiveDifferentFaultPatterns)
{
    FaultPlan p1 = FaultPlan::parse("seed=1,disk.media.rate=0.3");
    FaultPlan p2 = FaultPlan::parse("seed=2,disk.media.rate=0.3");
    Injector a(p1), b(p2);
    std::uint64_t site = fault::siteId("disk0");
    int differ = 0;
    for (std::uint64_t seq = 0; seq < 500; ++seq)
        if (a.diskMediaRetryCount(site, seq)
            != b.diskMediaRetryCount(site, seq))
            ++differ;
    EXPECT_GT(differ, 0);
}

TEST(Injector, DiskIsSlowIsPerSiteNotPerRequest)
{
    // Fail-slow marks a whole device for the run, so the answer
    // depends only on the site, and roughly diskSlowFrac of distinct
    // sites are marked.
    FaultPlan plan = FaultPlan::parse("seed=5,disk.slow.frac=0.5");
    Injector inj(plan);
    int slow = 0;
    const int kSites = 2000;
    for (int d = 0; d < kSites; ++d) {
        std::uint64_t site = fault::siteId("disk" + std::to_string(d));
        bool first = inj.diskIsSlow(site);
        EXPECT_EQ(first, inj.diskIsSlow(site));
        if (first)
            ++slow;
    }
    EXPECT_NEAR(static_cast<double>(slow) / kSites, 0.5, 0.05);
}

TEST(Injector, ZeroRatesNeverFire)
{
    Injector inj{FaultPlan{}};
    std::uint64_t site = fault::siteId("disk0");
    for (std::uint64_t seq = 0; seq < 100; ++seq) {
        EXPECT_FALSE(inj.diskIsSlow(site));
        EXPECT_EQ(inj.diskMediaRetryCount(site, seq), 0);
        EXPECT_FALSE(inj.diskRemapHit(site, seq));
        EXPECT_EQ(inj.netAttempt(site, seq, 0),
                  Injector::NetFail::None);
    }
}

TEST(Injector, MediaRetriesAreBoundedByThePlan)
{
    FaultPlan plan = FaultPlan::parse(
        "disk.media.rate=0.9,disk.media.retries=4");
    Injector inj(plan);
    std::uint64_t site = fault::siteId("disk1");
    int maxSeen = 0;
    for (std::uint64_t seq = 0; seq < 2000; ++seq) {
        int r = inj.diskMediaRetryCount(site, seq);
        EXPECT_LE(r, 4);
        maxSeen = std::max(maxSeen, r);
    }
    // At rate 0.9 the bound is actually exercised.
    EXPECT_EQ(maxSeen, 4);
}

TEST(Injector, NetLastAttemptAlwaysDelivers)
{
    // Even at the maximum combined failure rate, attempt netRetries
    // is forced through: a transfer can be delayed, never lost.
    FaultPlan plan = FaultPlan::parse(
        "net.drop.rate=0.5,net.corrupt.rate=0.5,net.retries=3");
    Injector inj(plan);
    std::uint64_t site = fault::linkSite(0, 1);
    for (std::uint64_t seq = 0; seq < 500; ++seq)
        EXPECT_EQ(inj.netAttempt(site, seq, 3),
                  Injector::NetFail::None);
}

TEST(Injector, LinkSitesAreDistinctAndDirected)
{
    std::set<std::uint64_t> sites;
    // Includes -1, the front-end/host endpoint used by the Active
    // Disk loop and the cluster switch.
    for (int src = -1; src < 8; ++src)
        for (int dst = -1; dst < 8; ++dst)
            sites.insert(fault::linkSite(src, dst));
    EXPECT_EQ(sites.size(), 81u);
    EXPECT_NE(fault::linkSite(2, 5), fault::linkSite(5, 2));
}

TEST(Injector, SiteIdsDistinguishDeviceNames)
{
    EXPECT_NE(fault::siteId("disk0"), fault::siteId("disk1"));
    EXPECT_NE(fault::siteId("disk0"), fault::siteId("smp.disk0"));
}

TEST(Injector, CountersStartAtZero)
{
    Injector inj{FaultPlan{}};
    EXPECT_EQ(inj.counters().diskMediaErrors, 0u);
    EXPECT_EQ(inj.counters().netDrops, 0u);
    EXPECT_EQ(inj.counters().stopDeaths, 0u);
    EXPECT_EQ(inj.counters().recoveredBlocks, 0u);
}

TEST(FaultScope, InstallsAndRestoresCurrent)
{
    EXPECT_EQ(fault::current(), nullptr);
    {
        fault::Scope scope(allFaultsPlan());
        ASSERT_NE(fault::current(), nullptr);
        EXPECT_EQ(fault::current(), scope.injector());
        {
            // Nested scope with an inactive plan installs no
            // injector and leaves the outer one visible.
            fault::Scope inner{FaultPlan{}};
            EXPECT_EQ(inner.injector(), nullptr);
            EXPECT_EQ(fault::current(), scope.injector());
        }
        EXPECT_EQ(fault::current(), scope.injector());
    }
    EXPECT_EQ(fault::current(), nullptr);
}

TEST(FaultScope, InactivePlanInstallsNothing)
{
    fault::Scope scope{FaultPlan{}};
    EXPECT_EQ(scope.injector(), nullptr);
    EXPECT_EQ(fault::current(), nullptr);
}
