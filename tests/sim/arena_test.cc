/**
 * @file
 * Arena allocator unit tests: size-class recycling, alignment,
 * oversize fallback, reset semantics, move-only handle behavior,
 * owner-path and cross-thread release (and the two interleaved), and
 * blocks outliving their Arena handle — the exact lifetime the
 * simulator relies on when a ProcessRef (and its coroutine frame) is
 * held past the Simulator's destruction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "sim/arena.hh"

using namespace howsim::sim;

namespace
{

TEST(Arena, ServesAlignedBlocks)
{
    Arena arena;
    for (std::size_t bytes : {1u, 7u, 63u, 64u, 65u, 512u, 4096u}) {
        void *p = arena.allocate(bytes);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p)
                      % alignof(std::max_align_t),
                  0u)
            << "misaligned block of " << bytes << " bytes";
        std::memset(p, 0xab, bytes); // must be writable end to end
        Arena::release(p);
    }
}

TEST(Arena, RecyclesThroughFreeLists)
{
    Arena arena;
    void *a = arena.allocate(100);
    Arena::release(a);
    void *b = arena.allocate(100);
    // Same size class, freed before the next allocate: the free list
    // must serve it (same address, one freelist hit).
    EXPECT_EQ(a, b);
    Arena::Stats s = arena.stats();
    EXPECT_EQ(s.allocs, 2u);
    EXPECT_EQ(s.freelistHits, 1u);
    Arena::release(b);
}

TEST(Arena, DistinctLiveBlocksDoNotOverlap)
{
    Arena arena;
    std::vector<char *> blocks;
    for (int i = 0; i < 1000; ++i) {
        char *p = static_cast<char *>(arena.allocate(96));
        std::memset(p, i & 0xff, 96);
        blocks.push_back(p);
    }
    for (int i = 0; i < 1000; ++i) {
        for (int j = 0; j < 96; ++j)
            ASSERT_EQ(blocks[static_cast<std::size_t>(i)][j],
                      static_cast<char>(i & 0xff));
    }
    EXPECT_EQ(arena.stats().live, 1000u);
    for (char *p : blocks)
        Arena::release(p);
    EXPECT_EQ(arena.stats().live, 0u);
}

TEST(Arena, GrowsChunksAsNeeded)
{
    Arena arena;
    // 1000 near-maximal class-served blocks blow well past the 64 KB
    // first chunk (4096-byte requests would be oversize: the header
    // pushes them past maxBlockBytes).
    constexpr std::size_t bytes = 4000;
    std::vector<void *> blocks;
    for (int i = 0; i < 1000; ++i)
        blocks.push_back(arena.allocate(bytes));
    Arena::Stats s = arena.stats();
    EXPECT_GT(s.chunks, 1u);
    EXPECT_GE(s.bytesReserved, 1000u * bytes);
    EXPECT_EQ(s.oversize, 0u);
    for (void *p : blocks)
        Arena::release(p);
}

TEST(Arena, OversizeFallsThroughToHeap)
{
    Arena arena;
    void *p = arena.allocate(Arena::maxBlockBytes + 1);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xcd, Arena::maxBlockBytes + 1);
    EXPECT_EQ(arena.stats().oversize, 1u);
    Arena::release(p);
}

TEST(Arena, ResetRecyclesChunks)
{
    Arena arena;
    std::vector<void *> blocks;
    for (int i = 0; i < 5000; ++i)
        blocks.push_back(arena.allocate(128));
    for (void *p : blocks)
        Arena::release(p);
    std::size_t reserved = arena.stats().bytesReserved;
    ASSERT_GT(reserved, 0u);
    arena.reset();
    // Chunks survive the reset and serve the next round without new
    // reservations.
    for (int i = 0; i < 5000; ++i)
        blocks[static_cast<std::size_t>(i)] = arena.allocate(128);
    EXPECT_EQ(arena.stats().bytesReserved, reserved);
    for (void *p : blocks)
        Arena::release(p);
}

TEST(Arena, MoveTransfersOwnership)
{
    Arena a;
    void *p = a.allocate(200);
    Arena b(std::move(a));
    EXPECT_EQ(b.stats().live, 1u);
    Arena::release(p);
    EXPECT_EQ(b.stats().live, 0u);
    void *q = b.allocate(200);
    EXPECT_EQ(q, p); // free list moved with the control block
    Arena::release(q);

    Arena c;
    c = std::move(b);
    void *r = c.allocate(64);
    Arena::release(r);
}

TEST(Arena, GlobalAllocationWithoutScopeUsesHeap)
{
    // No ArenaScope installed: allocateGlobal must hand out plain
    // heap memory that release() routes back to ::operator delete.
    ASSERT_EQ(Arena::current(), nullptr);
    void *p = Arena::allocateGlobal(333);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5a, 333);
    Arena::release(p);
}

TEST(Arena, ScopeInstallsAndNests)
{
    Arena outer;
    Arena inner;
    ASSERT_EQ(Arena::current(), nullptr);
    {
        ArenaScope so(&outer);
        EXPECT_EQ(Arena::current(), &outer);
        void *p = Arena::allocateGlobal(100);
        {
            ArenaScope si(&inner);
            EXPECT_EQ(Arena::current(), &inner);
            void *q = Arena::allocateGlobal(100);
            Arena::release(q);
            EXPECT_EQ(inner.stats().allocs, 1u);
        }
        EXPECT_EQ(Arena::current(), &outer);
        Arena::release(p);
        EXPECT_EQ(outer.stats().allocs, 1u);
    }
    ASSERT_EQ(Arena::current(), nullptr);
}

TEST(Arena, CrossThreadReleaseRecycles)
{
    Arena arena;
    constexpr int rounds = 200;
    for (int r = 0; r < rounds; ++r) {
        void *p = arena.allocate(256);
        std::thread releaser([p] { Arena::release(p); });
        releaser.join();
        // The join orders the release before this allocate, so the
        // free list must serve the recycled block.
        void *q = arena.allocate(256);
        EXPECT_EQ(q, p);
        Arena::release(q);
    }
    EXPECT_GE(arena.stats().freelistHits,
              static_cast<std::uint64_t>(rounds));
    EXPECT_EQ(arena.stats().live, 0u);
}

TEST(Arena, BlocksOutliveTheArenaHandle)
{
    void *p = nullptr;
    {
        Arena arena;
        p = arena.allocate(512);
        std::memset(p, 0x77, 512);
    }
    // The handle is gone; the refcounted control block must keep the
    // chunk alive until the last block is released.
    for (int i = 0; i < 512; ++i)
        ASSERT_EQ(static_cast<unsigned char *>(p)[i], 0x77u);
    Arena::release(p);
}

TEST(Arena, OwnerAndRemoteReleasesInterleave)
{
    Arena arena;
    ArenaScope scope(&arena);
    constexpr std::size_t n = 2000;
    constexpr std::size_t bytes = 192;
    std::vector<void *> blocks(n);
    for (void *&p : blocks)
        p = arena.allocate(bytes);

    // Odd blocks go back from another thread while the owner keeps
    // allocating (draining whatever has reached the remote list so
    // far) and then releases the even ones on its own free list.
    std::thread remote([&blocks] {
        for (std::size_t i = 1; i < n; i += 2)
            Arena::release(blocks[i]);
    });
    std::vector<void *> fresh(n / 4);
    for (void *&p : fresh)
        p = arena.allocate(bytes);
    for (std::size_t i = 0; i < n; i += 2)
        Arena::release(blocks[i]);
    remote.join();

    std::set<void *> evens;
    for (std::size_t i = 0; i < n; i += 2)
        evens.insert(blocks[i]);
    std::set<void *> freshSet(fresh.begin(), fresh.end());
    EXPECT_EQ(freshSet.size(), fresh.size());
    for (void *p : fresh)
        EXPECT_EQ(evens.count(p), 0u) << "block handed out twice";
    EXPECT_EQ(arena.stats().live, fresh.size());
    for (void *p : fresh)
        Arena::release(p);
    EXPECT_EQ(arena.stats().live, 0u);

    // Every block is free again, so the owner recycles them all
    // (remotely released ones included) without carving new memory.
    std::set<void *> known(blocks.begin(), blocks.end());
    known.insert(fresh.begin(), fresh.end());
    Arena::Stats before = arena.stats();
    std::vector<void *> again(known.size());
    for (void *&p : again)
        p = arena.allocate(bytes);
    Arena::Stats after = arena.stats();
    EXPECT_EQ(after.bytesReserved, before.bytesReserved);
    EXPECT_EQ(after.freelistHits - before.freelistHits, known.size());
    EXPECT_EQ(std::set<void *>(again.begin(), again.end()), known);
    for (void *p : again)
        Arena::release(p);
    EXPECT_EQ(arena.stats().live, 0u);
}

TEST(Arena, OwnerThreadReleaseAfterTheHandleDies)
{
    void *small = nullptr;
    void *big = nullptr;
    void *kept = nullptr;
    {
        Arena arena;
        ArenaScope scope(&arena);
        small = arena.allocate(100);
        big = arena.allocate(Arena::maxBlockBytes + 1);
        kept = arena.allocate(100);
        Arena::release(kept); // owner path while the handle lives
        kept = arena.allocate(100);
        std::memset(small, 0x3c, 100);
    }
    // Same thread, handle gone (and another arena installed): the
    // releases must find the control block alive and free it after
    // the last one.
    Arena other;
    ArenaScope scope(&other);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(static_cast<unsigned char *>(small)[i], 0x3cu);
    Arena::release(big);
    Arena::release(kept);
    Arena::release(small);
    EXPECT_EQ(other.stats().live, 0u);
}

TEST(Arena, MovedToArenaKeepsServingAndCounting)
{
    Arena a;
    void *p = a.allocate(200);
    void *q = a.allocate(200);
    Arena b(std::move(a));
    {
        ArenaScope scope(&b);
        Arena::release(p); // owner path through the new handle
        EXPECT_EQ(b.stats().live, 1u);
        void *r = b.allocate(200);
        EXPECT_EQ(r, p);
        Arena::release(r);
    }
    std::thread([q] { Arena::release(q); }).join();
    EXPECT_EQ(b.stats().live, 0u);

    // Move-assignment over a handle with a block still out: that
    // block must stay valid and free its old arena when released.
    Arena c;
    void *s = c.allocate(64);
    std::memset(s, 0x11, 64);
    void *t = b.allocate(64);
    c = std::move(b);
    EXPECT_EQ(c.stats().live, 1u);
    EXPECT_EQ(static_cast<unsigned char *>(s)[63], 0x11u);
    std::thread([s] { Arena::release(s); }).join();
    Arena::release(t);
    EXPECT_EQ(c.stats().live, 0u);
}

TEST(ArenaDeathTest, ResetPanicsWhileARemotelyHeldBlockIsLive)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Arena arena;
    void *held = arena.allocate(64);
    void *gone = arena.allocate(64);
    // One block comes back from another thread; the other is still
    // held there. Remote releases must not mask it.
    std::thread([gone] { Arena::release(gone); }).join();
    EXPECT_EQ(arena.stats().live, 1u);
    EXPECT_DEATH(arena.reset(), "1 live");
    std::thread([held] { Arena::release(held); }).join();
    arena.reset();
    EXPECT_EQ(arena.stats().live, 0u);
}

TEST(ArenaDeathTest, ResetWithLiveAllocationsPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Arena arena;
    void *p = arena.allocate(64);
    EXPECT_DEATH(arena.reset(), "live");
    Arena::release(p);
}

} // namespace
