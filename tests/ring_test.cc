/**
 * @file
 * Unit tests for UopRing, the core's one in-flight window: the renamed
 * prefix is the ROB, the unrenamed tail the fetch queue.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "common/ring.hh"

namespace wisc {
namespace {

/** A stand-in µop record: an aggregate, as the ring requires. */
struct Slot
{
    std::uint64_t id;
    std::uint8_t part; ///< 0 = plain, 1 = compute half, 2 = select half
};

Slot &
fetch(UopRing<Slot> &r, std::uint64_t id, std::uint8_t part = 0)
{
    Slot &s = r.push();
    s.id = id;
    s.part = part;
    return s;
}

TEST(UopRingTest, RenameKeepsTheSlotInPlace)
{
    UopRing<Slot> r;
    r.reset(4);
    const Slot *fetched = &fetch(r, 7);
    fetch(r, 8);
    EXPECT_EQ(r.renamed(), 0u);
    EXPECT_EQ(&r.firstUnrenamed(), fetched);

    r.rename();
    EXPECT_EQ(r.renamed(), 1u);
    EXPECT_EQ(r.size(), 2u);
    // The ROB entry is the very slot fetch wrote: nothing was copied.
    EXPECT_EQ(&r.front(), fetched);
    EXPECT_EQ(r.front().id, 7u);
    EXPECT_EQ(r.firstUnrenamed().id, 8u);
}

TEST(UopRingTest, FlushDropsTheTailThenPopsRenamedYoungestFirst)
{
    UopRing<Slot> r;
    r.reset(8);
    for (std::uint64_t id = 1; id <= 6; ++id)
        fetch(r, id);
    for (int i = 0; i < 4; ++i)
        r.rename();

    r.dropUnrenamed();
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.renamed(), 4u);
    EXPECT_EQ(r.back().id, 4u);

    for (std::uint64_t id = 4; id >= 3; --id) {
        EXPECT_EQ(r.back().id, id);
        r.pop_back();
    }
    EXPECT_EQ(r.size(), 2u);
    EXPECT_EQ(r.renamed(), 2u);
    EXPECT_EQ(r.front().id, 1u);
    EXPECT_EQ(r.back().id, 2u);

    // Fetch resumes behind the surviving ROB entries.
    fetch(r, 9);
    EXPECT_EQ(r.firstUnrenamed().id, 9u);
}

TEST(UopRingTest, PopBackDropsAnUnrenamedEntryFirst)
{
    UopRing<Slot> r;
    r.reset(4);
    fetch(r, 1);
    r.rename();
    fetch(r, 2);
    r.pop_back();
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.renamed(), 1u);
    EXPECT_EQ(r.back().id, 1u);
}

TEST(UopRingTest, WrapsAroundAtCapacity)
{
    UopRing<Slot> r;
    r.reset(3);
    std::uint64_t next = 1;
    std::uint64_t oldest = 1;
    for (int round = 0; round < 10; ++round) {
        while (r.size() < 3)
            fetch(r, next++);
        while (r.renamed() < r.size())
            r.rename();
        for (std::size_t i = 0; i < r.size(); ++i)
            EXPECT_EQ(r[i].id, oldest + i) << "round " << round;
        // Retire two of three, so the head walks around the storage.
        r.pop_front();
        r.pop_front();
        oldest += 2;
        EXPECT_EQ(r.front().id, oldest);
    }
}

TEST(UopRingTest, SelectHalfSitsRightAfterItsComputeHalf)
{
    UopRing<Slot> r;
    r.reset(4);
    fetch(r, 1);
    fetch(r, 2);
    r.rename();
    r.rename();
    r.pop_front();
    r.pop_front();
    // The head is now at the third storage slot: the pair straddles
    // the wrap.
    fetch(r, 3);
    const Slot &compute = fetch(r, 4, 1);
    const Slot &select = fetch(r, 4, 2);
    r.rename();
    EXPECT_EQ(&r.firstUnrenamed(), &compute);
    r.rename();
    EXPECT_EQ(&r.firstUnrenamed(), &select);
    r.rename();
    EXPECT_EQ(&r[1], &compute);
    EXPECT_EQ(&r[2], &select);
    EXPECT_EQ(r[2].part, 2);
}

TEST(UopRingDeathTest, OverflowIsAHardError)
{
    UopRing<Slot> r;
    r.reset(2);
    fetch(r, 1);
    fetch(r, 2);
    EXPECT_DEATH(r.push(), "ring overflow");
}

TEST(UopRingDeathTest, RetiringAnUnrenamedEntryIsAHardError)
{
    UopRing<Slot> r;
    r.reset(2);
    fetch(r, 1);
    EXPECT_DEATH(r.pop_front(), "unrenamed");
}

} // namespace
} // namespace wisc
