/**
 * @file
 * Adapters binding fault::Detector to each machine architecture.
 *
 * The detector (fault/detector.hh) is machine-agnostic: it needs a
 * heartbeat round trip, a rebuild-chunk copy, and the latency of a
 * keyed hop. Each adapter here forwards those onto
 * one machine's public availability surface so runExperiment can wire
 * a detector next to any of the three architectures with the same
 * half-dozen lines.
 */

#ifndef HOWSIM_CORE_AVAILABILITY_HH
#define HOWSIM_CORE_AVAILABILITY_HH

#include <cstdint>

#include "arch/cluster_machine.hh"
#include "diskos/active_disk_array.hh"
#include "fault/detector.hh"
#include "smp/smp_machine.hh"

namespace howsim::core
{

/** Active-disk array: probes drives over the FC loop protocol. */
class AdAvailability : public fault::AvailabilityTransport
{
  public:
    explicit AdAvailability(diskos::ActiveDiskArray &m) : machine(m) {}

    sim::Coro<bool>
    heartbeat(int device) override
    {
        return machine.heartbeat(device);
    }

    sim::Coro<void>
    rebuildChunk(int device, std::uint64_t offset,
                 std::uint64_t bytes) override
    {
        return machine.rebuildChunk(device, offset, bytes);
    }

    int deviceCount() const override { return machine.size(); }

    sim::Tick
    crossLatency() const override
    {
        return machine.crossLatency();
    }

  private:
    diskos::ActiveDiskArray &machine;
};

/** Cluster: probes nodes through the switched fabric. */
class ClusterAvailability : public fault::AvailabilityTransport
{
  public:
    explicit ClusterAvailability(arch::ClusterMachine &m) : machine(m)
    {
    }

    sim::Coro<bool>
    heartbeat(int device) override
    {
        return machine.heartbeat(device);
    }

    sim::Coro<void>
    rebuildChunk(int device, std::uint64_t offset,
                 std::uint64_t bytes) override
    {
        return machine.rebuildChunk(device, offset, bytes);
    }

    int deviceCount() const override { return machine.size(); }

    sim::Tick
    crossLatency() const override
    {
        return machine.crossLatency();
    }

  private:
    arch::ClusterMachine &machine;
};

/** SMP: probes farm drives over the shared FC. */
class SmpAvailability : public fault::AvailabilityTransport
{
  public:
    explicit SmpAvailability(smp::SmpMachine &m) : machine(m) {}

    sim::Coro<bool>
    heartbeat(int device) override
    {
        return machine.heartbeat(device);
    }

    sim::Coro<void>
    rebuildChunk(int device, std::uint64_t offset,
                 std::uint64_t bytes) override
    {
        return machine.rebuildChunk(device, offset, bytes);
    }

    int deviceCount() const override { return machine.diskCount(); }

    sim::Tick
    crossLatency() const override
    {
        return machine.params().interconnectLatency;
    }

  private:
    smp::SmpMachine &machine;
};

} // namespace howsim::core

#endif // HOWSIM_CORE_AVAILABILITY_HH
