#include "os/raw_disk.hh"

#include "sim/awaitables.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace howsim::os
{

RawDisk::RawDisk(disk::Disk &d, bus::Bus *attach, OsCosts costs)
    : diskRef(d), attachBus(attach), osCosts(costs)
{
}

void
RawDisk::enableSplit(sim::Simulator &sim, sim::Tick completionLatency)
{
    if (completionLatency == 0)
        panic("RawDisk::enableSplit: zero completion latency");
    splitSim = &sim;
    completionLat = completionLatency;
    toDisk = sim.allocKeyStream();
    toHost = sim.allocKeyStream();
}

sim::Coro<IoResult>
RawDisk::read(std::uint64_t offset, std::uint64_t bytes)
{
    return io(offset, bytes, false);
}

sim::Coro<IoResult>
RawDisk::write(std::uint64_t offset, std::uint64_t bytes)
{
    return io(offset, bytes, true);
}

sim::Coro<IoResult>
RawDisk::io(std::uint64_t offset, std::uint64_t bytes, bool write)
{
    if (bytes == 0)
        panic("RawDisk: zero-byte I/O");

    const std::uint32_t sector = diskRef.spec().sectorBytes;
    std::uint64_t first = offset / sector;
    std::uint64_t last = (offset + bytes + sector - 1) / sector;
    disk::DiskRequest req;
    req.lba = first;
    req.sectors = static_cast<std::uint32_t>(last - first);
    req.write = write;

    if (splitSim) {
        // Split protocol: the request crosses to the drive as a
        // keyed event (the driver-queueing time is the flight), the
        // mechanism runs there, and completion flies back after
        // completionLat. The result slot and trigger live in this
        // suspended frame.
        sim::Tick start = splitSim->now();
        co_await sim::delay(osCosts.syscall);
        IoResult result;
        sim::Trigger done;
        IoResult *resultPtr = &result;
        sim::Trigger *donePtr = &done;
        RawDisk *self = this;
        splitSim->postKeyed(
            splitSim->now() + osCosts.ioQueue, toDisk.next(),
            [self, req, resultPtr, donePtr] {
                self->splitSim->spawnDetached(
                    self->driveLeg(req, resultPtr, donePtr), "rawio");
            });
        co_await done.wait();
        if (attachBus)
            co_await attachBus->transfer(bytes);
        // Completion interrupt.
        co_await sim::delay(osCosts.interrupt);
        result.totalTicks = splitSim->now() - start;
        co_return result;
    }

    sim::Tick start = sim::Simulator::current()->now();

    // Issue path: system call plus device-driver queueing.
    co_await sim::delay(osCosts.syscall + osCosts.ioQueue);

    IoResult result;
    result.detail = co_await diskRef.access(req);

    // Each injected media-error reread surfaces as a check-condition
    // the driver must field before the transfer completes.
    if (result.detail.retries > 0) {
        co_await sim::delay(osCosts.interrupt
                            * static_cast<sim::Tick>(
                                result.detail.retries));
    }

    if (attachBus)
        co_await attachBus->transfer(bytes);

    // Completion interrupt.
    co_await sim::delay(osCosts.interrupt);
    result.totalTicks = sim::Simulator::current()->now() - start;
    co_return result;
}

sim::Coro<void>
RawDisk::driveLeg(disk::DiskRequest req, IoResult *out,
                  sim::Trigger *done)
{
    out->detail = co_await diskRef.access(req);

    // Each injected media-error reread surfaces as a check-condition
    // the driver must field before the transfer completes.
    if (out->detail.retries > 0) {
        co_await sim::delay(osCosts.interrupt
                            * static_cast<sim::Tick>(
                                out->detail.retries));
    }

    splitSim->postKeyed(splitSim->now() + completionLat, toHost.next(),
                        [done] { done->fire(); });
}

} // namespace howsim::os
