/**
 * @file
 * Active Disk array configuration.
 *
 * Defaults follow the paper's core configuration: a Cyrix 6x86 200MX
 * (200 MHz) and 32 MB of SDRAM integrated in each drive, a dual-loop
 * Fibre Channel interconnect (200 MB/s aggregate), direct
 * disk-to-disk communication, and a 450 MHz Pentium II front-end
 * with 1 GB of memory.
 */

#ifndef HOWSIM_DISKOS_AD_PARAMS_HH
#define HOWSIM_DISKOS_AD_PARAMS_HH

#include <cstdint>

#include "bus/bus.hh"
#include "os/os_costs.hh"
#include "sim/ticks.hh"

namespace howsim::diskos
{

/** Parameters of one Active Disk array (disks + front-end). */
struct AdParams
{
    /** Embedded processor clock (Cyrix 6x86 200MX). */
    double cpuMhz = 200;

    /** SDRAM integrated in each drive. */
    std::uint64_t memoryBytes = 32ull << 20;

    /** Stream transfer granularity between devices. */
    std::uint32_t streamBlockBytes = 256 * 1024;

    /**
     * DiskOS buffers for inter-device communication per 32 MB of
     * disk memory. The paper doubles/quadruples the buffer count for
     * the 64 MB and 128 MB configurations, which lets those
     * configurations tolerate longer communication and I/O latencies.
     */
    int commBuffersPer32Mb = 8;

    /** Whether drives may address each other directly. */
    bool directD2d = true;

    /** Aggregate serial-interconnect bandwidth, bytes/second. */
    double interconnectRate = 200e6;

    /** Loops composing the serial interconnect. */
    int interconnectLoops = 2;

    /** Front-end host processor clock (Pentium II). */
    double frontendCpuMhz = 450;

    /**
     * Sustained one-way memory copy rate of the front-end at
     * 450 MHz, in bytes per second; scales linearly with the
     * front-end clock. Relaying a block through host memory costs a
     * copy in and a copy out at this rate.
     */
    double frontendCopyRate450 = 66e6;

    /** Front-end memory. */
    std::uint64_t frontendMemoryBytes = 1ull << 30;

    /** Relay buffers at the front-end (restricted communication). */
    int frontendBuffers = 64;

    /** DiskOS per-operation costs. */
    os::OsCosts costs = os::OsCosts::diskOs();

    /** Communication buffers available in each drive. */
    int
    commBuffers() const
    {
        return static_cast<int>(commBuffersPer32Mb
                                * (memoryBytes / (32ull << 20)));
    }

    /**
     * Front-end copy rate expressed at the *reference* CPU clock
     * (275 MHz), for use with os::Cpu::copyBytes — the Cpu model
     * rescales it to the configured front-end clock, so a 1 GHz
     * front-end copies 1000/450 times faster.
     */
    double
    frontendCopyRefRate() const
    {
        return frontendCopyRate450 * (275.0 / 450.0);
    }

    /** Interconnect parameterization for bus::Bus. */
    bus::BusParams
    interconnect() const
    {
        return bus::BusParams::fibreChannel(interconnectRate,
                                            interconnectLoops);
    }
};

} // namespace howsim::diskos

#endif // HOWSIM_DISKOS_AD_PARAMS_HH
