/**
 * @file
 * Unit tests for the cache tag arrays and the memory hierarchy: LRU
 * replacement, hierarchy latencies, line-fill timing windows, the
 * text-warming helper, and the MSHR-facing probe.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "uarch/cache.hh"

namespace wisc {
namespace {

TEST(CacheTest, MissThenHit)
{
    StatSet stats;
    Cache c({1024, 2, 64, 1}, "t", stats);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)) << "same 64B line";
    EXPECT_FALSE(c.access(0x140)) << "next line";
}

TEST(CacheTest, LruReplacement)
{
    StatSet stats;
    // 1 KB, 2-way, 64B lines -> 8 sets. Lines 0, 8, 16 share set 0.
    Cache c({1024, 2, 64, 1}, "t", stats);
    c.access(0 * 64);
    c.access(8 * 64);
    c.access(0 * 64);  // 0 is MRU
    c.access(16 * 64); // evicts 8
    EXPECT_TRUE(c.probe(0 * 64));
    EXPECT_FALSE(c.probe(8 * 64));
    EXPECT_TRUE(c.probe(16 * 64));
}

TEST(CacheTest, ProbeDoesNotAllocate)
{
    StatSet stats;
    Cache c({1024, 2, 64, 1}, "t", stats);
    EXPECT_FALSE(c.probe(0x500));
    EXPECT_FALSE(c.probe(0x500)) << "probe must not allocate";
    EXPECT_FALSE(c.access(0x500));
    EXPECT_TRUE(c.probe(0x500));
}

TEST(MemorySystemTest, HierarchyLatencies)
{
    SimParams p; // L1 2 cycles, L2 +6, memory +300
    StatSet stats;
    MemorySystem mem(p, stats);

    unsigned cold = mem.loadAccess(0x10000, 0);
    EXPECT_EQ(cold, 2u + 6u + 300u);

    // Wait for the fill to complete before re-accessing.
    unsigned warm = mem.loadAccess(0x10000, 1000);
    EXPECT_EQ(warm, 2u);
}

TEST(MemorySystemTest, FillWindowChargesRemainingTime)
{
    SimParams p;
    StatSet stats;
    MemorySystem mem(p, stats);

    unsigned cold = mem.loadAccess(0x10000, 0);
    ASSERT_GT(cold, 100u);
    // A second access to the same line 10 cycles later pays the rest of
    // the fill, not a fresh hit.
    unsigned second = mem.loadAccess(0x10008, 10);
    EXPECT_EQ(second, cold - 10 + p.dl1.hitLatency);
}

TEST(MemorySystemTest, L2HitAfterL1Eviction)
{
    SimParams p;
    p.dl1 = {128, 1, 64, 2}; // tiny L1: 2 lines, direct mapped
    StatSet stats;
    MemorySystem mem(p, stats);

    mem.loadAccess(0 * 64, 0);
    // Same L1 set (2-line direct-mapped L1: sets = 2), different line.
    mem.loadAccess(2 * 64, 1000);
    mem.loadAccess(4 * 64, 2000); // evicts line 0 from L1
    unsigned lat = mem.loadAccess(0 * 64, 3000);
    EXPECT_EQ(lat, p.dl1.hitLatency + p.l2.hitLatency) << "L2 hit";
}

TEST(MemorySystemTest, WarmTextMakesFetchesHit)
{
    SimParams p;
    StatSet stats;
    MemorySystem mem(p, stats);
    mem.warmText(0x10000, 4096);
    for (Addr a = 0x10000; a < 0x11000; a += 64)
        EXPECT_EQ(mem.fetchAccess(a), p.il1.hitLatency);
}

TEST(MemorySystemTest, StoreAllocates)
{
    SimParams p;
    StatSet stats;
    MemorySystem mem(p, stats);
    mem.tagAccess(0x40000);
    EXPECT_TRUE(mem.loadWouldHitL1(0x40000));
}

TEST(CacheTest, GeometryValidation)
{
    StatSet stats;
    CacheParams bad{64, 4, 64, 1}; // 64B total with 4 ways of 64B lines
    EXPECT_DEATH(
        {
            Cache c(bad, "t", stats);
            c.access(0);
        },
        "cache");
}

} // namespace
} // namespace wisc
