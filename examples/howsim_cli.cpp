/**
 * @file
 * howsim_cli — run any single experiment from the command line.
 *
 *   howsim_cli --arch=active|cluster|smp --task=<name> --disks=N
 *              [--memory-mb=M] [--rate-mbps=R] [--loops=L]
 *              [--no-d2d] [--frontend-mhz=F] [--fast-disk] [--csv]
 *
 * Examples:
 *   howsim_cli --arch=smp --task=sort --disks=64
 *   howsim_cli --arch=active --task=dcube --disks=16 --memory-mb=64
 *   howsim_cli --arch=active --task=join --disks=128 --no-d2d
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;

namespace
{

std::optional<std::string>
argValue(const char *arg, const char *name)
{
    std::string prefix = std::string("--") + name + "=";
    if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0)
        return std::string(arg + prefix.size());
    return std::nullopt;
}

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --arch=active|cluster|smp --task=NAME "
                 "--disks=N\n"
                 "          [--memory-mb=M] [--rate-mbps=R] "
                 "[--loops=L] [--no-d2d]\n"
                 "          [--frontend-mhz=F] [--fast-disk] [--csv]\n"
                 "tasks: select aggregate groupby sort dcube join "
                 "dmine mview\n",
                 prog);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentConfig config;
    bool csv = false;
    bool saw_task = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (auto v = argValue(arg, "arch")) {
            if (*v == "active")
                config.arch = Arch::ActiveDisk;
            else if (*v == "cluster")
                config.arch = Arch::Cluster;
            else if (*v == "smp")
                config.arch = Arch::Smp;
            else
                usage(argv[0]);
        } else if (auto v = argValue(arg, "task")) {
            bool found = false;
            for (auto kind : workload::allTasks) {
                if (workload::taskName(kind) == *v) {
                    config.task = kind;
                    found = true;
                }
            }
            if (!found)
                usage(argv[0]);
            saw_task = true;
        } else if (auto v = argValue(arg, "disks")) {
            config.scale = std::atoi(v->c_str());
        } else if (auto v = argValue(arg, "memory-mb")) {
            config.adMemoryBytes
                = static_cast<std::uint64_t>(std::atoi(v->c_str()))
                  << 20;
        } else if (auto v = argValue(arg, "rate-mbps")) {
            config.interconnectRate = std::atof(v->c_str()) * 1e6;
        } else if (auto v = argValue(arg, "loops")) {
            config.interconnectLoops = std::atoi(v->c_str());
        } else if (auto v = argValue(arg, "frontend-mhz")) {
            config.adFrontendMhz = std::atof(v->c_str());
        } else if (std::strcmp(arg, "--no-d2d") == 0) {
            config.directD2d = false;
        } else if (std::strcmp(arg, "--fast-disk") == 0) {
            config.drive = disk::DiskSpec::hitachiDk3e1t91();
        } else if (std::strcmp(arg, "--csv") == 0) {
            csv = true;
        } else {
            usage(argv[0]);
        }
    }
    if (!saw_task || config.scale <= 0)
        usage(argv[0]);

    auto result = core::runExperiment(config);

    if (csv) {
        std::printf("arch,task,disks,seconds,interconnect_mb\n");
        std::printf("%s,%s,%d,%.3f,%.1f\n",
                    core::archName(config.arch).c_str(),
                    workload::taskName(config.task).c_str(),
                    config.scale, result.seconds(),
                    static_cast<double>(result.interconnectBytes)
                        / 1e6);
        return 0;
    }

    std::printf("%s / %s / %d disks\n",
                core::archName(config.arch).c_str(),
                workload::taskName(config.task).c_str(), config.scale);
    std::printf("  elapsed              %10.2f s\n", result.seconds());
    std::printf("  interconnect traffic %10.1f MB\n",
                static_cast<double>(result.interconnectBytes) / 1e6);
    std::printf("  est. config price    %10.0f $\n",
                core::configPrice(config.arch, config.scale));
    for (const auto &[name, secs] : result.buckets.all()) {
        std::printf("  bucket %-14s%10.2f s\n", name.c_str(), secs);
    }
    return 0;
}
