/**
 * @file ExperimentConfig and environment validation: invalid
 * configurations must fatal() with an actionable message before any
 * machine is built (the table of checks is in DESIGN.md section 13).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiment.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using workload::TaskKind;

namespace
{

ExperimentConfig
validConfig()
{
    ExperimentConfig config;
    config.arch = Arch::ActiveDisk;
    config.task = TaskKind::Select;
    config.scale = 2;
    return config;
}

} // namespace

TEST(ConfigValidationDeathTest, NonPositiveScale)
{
    auto config = validConfig();
    config.scale = 0;
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "scale");
}

TEST(ConfigValidationDeathTest, ZeroAdMemory)
{
    auto config = validConfig();
    config.adMemoryBytes = 0;
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "adMemoryBytes");
}

TEST(ConfigValidationDeathTest, NonPositiveInterconnectRate)
{
    auto config = validConfig();
    config.interconnectRate = -1.0;
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "interconnectRate");
}

TEST(ConfigValidationDeathTest, ZeroInterconnectLoops)
{
    auto config = validConfig();
    config.interconnectLoops = 0;
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "interconnectLoops");
}

TEST(ConfigValidationDeathTest, NonPositiveFrontendClock)
{
    auto config = validConfig();
    config.adFrontendMhz = 0.0;
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "adFrontendMhz");
}

TEST(ConfigValidationDeathTest, StopVictimOutOfRange)
{
    auto config = validConfig();
    config.faults = "stop.disk=5,stop.at.ms=10";
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigValidationDeathTest, StopNeedsSurvivors)
{
    auto config = validConfig();
    config.scale = 1;
    config.faults = "stop.disk=0,stop.at.ms=10";
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "takeover buddy");
}

TEST(ConfigValidationDeathTest, StopListingEveryDeviceIsFatal)
{
    auto config = validConfig();
    config.faults = "stop.disk=0+1,stop.at.ms=10";
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1),
                "never-victim survivor");
}

TEST(ConfigValidationDeathTest, StopViolationsReportedTogether)
{
    // Every fail-stop violation lands in ONE fatal(), so a matrix
    // driver sees the whole damage in a single pass: here both the
    // out-of-range victim and the scale floor.
    auto config = validConfig();
    config.scale = 1;
    config.faults = "stop.disk=5,stop.at.ms=10";
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1),
                "out of range(.|\n)*scale >= 2");
}

TEST(ConfigValidationDeathTest, MalformedFaultSpecKey)
{
    auto config = validConfig();
    config.faults = "disk.nonsense=1";
    EXPECT_EXIT(core::runExperiment(config),
                testing::ExitedWithCode(1), "disk.nonsense");
}

TEST(EnvValidationDeathTest, ObsIntervalGarbageIsFatal)
{
    setenv("HOWSIM_METRICS", "/tmp/howsim_cfgval_metrics", 1);
    setenv("HOWSIM_OBS_INTERVAL_US", "soon", 1);
    EXPECT_EXIT(core::runExperiment(validConfig()),
                testing::ExitedWithCode(1),
                "HOWSIM_OBS_INTERVAL_US");
    setenv("HOWSIM_OBS_INTERVAL_US", "0", 1);
    EXPECT_EXIT(core::runExperiment(validConfig()),
                testing::ExitedWithCode(1),
                "HOWSIM_OBS_INTERVAL_US");
    unsetenv("HOWSIM_OBS_INTERVAL_US");
    unsetenv("HOWSIM_METRICS");
}

TEST(EnvValidationDeathTest, FaultsEnvGarbageIsFatal)
{
    setenv("HOWSIM_FAULTS", "disk.media.rate=lots", 1);
    EXPECT_EXIT(core::runExperiment(validConfig()),
                testing::ExitedWithCode(1), "disk.media.rate");
    unsetenv("HOWSIM_FAULTS");
}
