/**
 * @file
 * The event loop's steady state must not call the allocator.
 *
 * A figure run executes tens of millions of events; the kernel keeps
 * that path off malloc by design: coroutine resumptions ride in the
 * event key, actions park in a recycled slot pool, ladder buckets
 * recycle through spare lists, frames come from the simulator's
 * arena, a detached frame needs no registry, a disk request lives in
 * its access() frame, and a one-waiter Trigger stores its waiter
 * inline. This binary replaces the global operator new with a counter
 * and drives the two hottest shapes — disk requests and keyed
 * handshake legs — past a warm-up, then asserts that the next stretch
 * of simulated time allocates nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "disk/disk.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;

namespace
{

std::uint64_t newCalls = 0;

} // namespace

// Out of line for the same reason as in event_queue_test.cc: inlined
// into a container, a malloc/free pair would meet operator new or
// delete and trip -Wmismatched-new-delete.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    ++newCalls;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t n, std::align_val_t align)
{
    ++newCalls;
    std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

/**
 * The far side of a keyed handshake, as the machines run it: a
 * detached leg that spends some time on the device, then posts the
 * keyed ack that releases the issuing frame.
 */
Coro<void>
handshakeLeg(Simulator &s, KeyStream *keys, Trigger *acked)
{
    co_await delay(microseconds(40));
    s.postKeyed(s.now() + microseconds(5), keys->next(),
                [acked] { acked->fire(); });
}

/** Read, then hand the block over with a keyed handshake; repeat. */
Coro<void>
client(Simulator &s, disk::Disk &drive, KeyStream *keys, int id,
       std::uint64_t *rounds)
{
    const std::uint64_t span = drive.geometry().totalSectors() - 16;
    std::uint64_t lba = static_cast<std::uint64_t>(id) * 7919;
    for (;;) {
        lba = (lba * 2654435761u + 12345) % span;
        co_await drive.access({lba, 16, false});
        Trigger acked;
        Trigger *ackedPtr = &acked;
        Simulator *sim = &s;
        s.postKeyed(s.now() + microseconds(5), keys->next(),
                    [sim, keys, ackedPtr] {
                        sim->spawnDetached(
                            handshakeLeg(*sim, keys, ackedPtr), "leg");
                    });
        co_await acked.wait();
        ++*rounds;
    }
}

} // namespace

TEST(Simulator, SteadyStateDoesNotAllocate)
{
    Simulator sim;
    disk::Disk drive(sim, disk::DiskSpec::seagateSt39102());
    // One stream per client, as each machine device owns its own.
    KeyStream keys[3] = {sim.allocKeyStream(), sim.allocKeyStream(),
                         sim.allocKeyStream()};
    std::uint64_t rounds = 0;
    for (int c = 0; c < 3; ++c)
        sim.spawn(client(sim, drive, &keys[c], c, &rounds));

    sim.run(seconds(2));
    const std::uint64_t warmRounds = rounds;
    const std::uint64_t warmEvents = sim.eventsExecuted();
    ASSERT_GT(warmRounds, 100u);

    // Four more simulated seconds: about twice the warm-up's work.
    newCalls = 0;
    sim.run(seconds(6));
    const std::uint64_t allocs = newCalls;
    EXPECT_GT(rounds - warmRounds, warmRounds);
    EXPECT_GT(sim.eventsExecuted() - warmEvents, 1000u);
    EXPECT_EQ(allocs, 0u) << "operator new calls in the steady state";
}
