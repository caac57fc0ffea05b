/**
 * @file
 * Unit tests for the branch-prediction stack: gshare/PAs hybrid
 * learning, speculative-history checkpointing, BTB insertion/eviction
 * with wish-type bits, the return address stack, and the indirect
 * target cache.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "uarch/bpred.hh"

namespace wisc {
namespace {

SimParams
smallParams()
{
    SimParams p;
    p.gshareEntries = 1024;
    p.pasHistEntries = 64;
    p.pasPatternEntries = 1024;
    p.selectorEntries = 256;
    p.btbSets = 16;
    p.btbWays = 2;
    return p;
}

TEST(HybridPredictorTest, LearnsAlwaysTaken)
{
    HybridPredictor bp(smallParams());
    for (int i = 0; i < 50; ++i) {
        BpredCheckpoint ckpt;
        bool pred = bp.predict(42, ckpt);
        bp.updateSpeculative(42, pred);
        bp.train(42, true, ckpt);
        bp.recover(42, true, ckpt); // keep history exact
    }
    BpredCheckpoint ckpt;
    EXPECT_TRUE(bp.predict(42, ckpt));
}

TEST(HybridPredictorTest, LearnsAlternatingViaHistory)
{
    HybridPredictor bp(smallParams());
    bool dir = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        dir = !dir;
        BpredCheckpoint ckpt;
        bool pred = bp.predict(42, ckpt);
        if (i >= 200 && pred == dir)
            ++correct;
        bp.updateSpeculative(42, pred);
        bp.train(42, dir, ckpt);
        bp.recover(42, dir, ckpt);
    }
    // A history-based predictor captures a strict alternation.
    EXPECT_GT(correct, 190);
}

TEST(HybridPredictorTest, CheckpointRestoresHistory)
{
    HybridPredictor bp(smallParams());
    bp.updateSpeculative(1, true);
    bp.updateSpeculative(2, false);
    std::uint64_t before = bp.globalHistory();

    BpredCheckpoint ckpt;
    bp.predict(3, ckpt);
    bp.updateSpeculative(3, true); // speculative, to be undone
    bp.updateSpeculative(4, true);
    EXPECT_NE(bp.globalHistory(), (before << 1) | 0);

    bp.recover(3, false, ckpt); // branch 3 actually not taken
    EXPECT_EQ(bp.globalHistory(), (before << 1) | 0);
}

TEST(HybridPredictorTest, SelectorPicksBetterComponent)
{
    // A pattern gshare can learn but a short local history cannot
    // (period longer than PAs history); after training, prediction
    // accuracy must be high, implying the selector settled correctly.
    SimParams p = smallParams();
    HybridPredictor bp(p);
    Rng rng(3);
    int correct = 0, total = 0;
    for (int i = 0; i < 2000; ++i) {
        bool dir = (i % 7) < 3; // period-7 pattern
        BpredCheckpoint ckpt;
        bool pred = bp.predict(77, ckpt);
        if (i > 1000) {
            ++total;
            if (pred == dir)
                ++correct;
        }
        bp.updateSpeculative(77, pred);
        bp.train(77, dir, ckpt);
        bp.recover(77, dir, ckpt);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(HybridPredictorTest, SelectorTrainsOnFetchTimePredictions)
{
    // Regression: with two in-flight branches whose gshare entries
    // alias, training the second branch retrains the shared counter
    // before the first branch retires. The selector must be judged on
    // the prediction gshare actually made at fetch, not on the
    // counter's retirement-time value — the old code punished gshare
    // for a prediction it never made.
    HybridPredictor bp(smallParams());

    BpredCheckpoint ckptA;
    bool predA = bp.predict(4, ckptA); // gshare index 4 ^ hist 0
    EXPECT_TRUE(predA) << "fresh counters are weakly taken";
    EXPECT_TRUE(ckptA.gshareTaken);
    bp.updateSpeculative(4, predA);

    // Second in-flight branch: pc=5 under hist=1 hits gshare entry
    // 5^1 == 4^0, the same counter branch A predicted with.
    BpredCheckpoint ckptB;
    bool predB = bp.predict(5, ckptB);
    bp.updateSpeculative(5, predB);

    // B retires (twice, for determinism) as not-taken, driving the
    // shared gshare counter to strongly not-taken while A is still in
    // flight.
    bp.train(5, false, ckptB);
    bp.train(5, false, ckptB);

    // A retires taken. Both components predicted taken at fetch, so
    // the selector must not move. The buggy selector re-read the
    // clobbered counter, judged gshare wrong, and switched this PC to
    // the PAs side.
    bp.train(4, true, ckptA);

    bp.recover(4, false, BpredCheckpoint{}); // histories back to 0
    BpredCheckpoint probe;
    // The shared gshare counter now says not-taken while PAs says
    // taken; a selector still (correctly) on the gshare side predicts
    // not-taken.
    EXPECT_FALSE(bp.predict(4, probe))
        << "selector was mistrained against retirement-time counters";
}

TEST(BtbTest, InsertLookup)
{
    StatSet stats;
    Btb btb(smallParams(), stats);
    EXPECT_EQ(btb.lookup(100), nullptr);
    btb.insert(100, 200, WishKind::Jump, true);
    const BtbEntry *e = btb.lookup(100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->target, 200u);
    EXPECT_EQ(e->wish, WishKind::Jump);
    EXPECT_TRUE(e->isConditional);
}

TEST(BtbTest, LruEviction)
{
    StatSet stats;
    SimParams p = smallParams(); // 16 sets x 2 ways
    Btb btb(p, stats);
    // Three branches in the same set (stride = sets).
    btb.insert(0, 1, WishKind::None, true);
    btb.insert(16, 2, WishKind::None, true);
    btb.lookup(0); // make pc=0 recently used
    btb.insert(32, 3, WishKind::None, true); // evicts pc=16
    EXPECT_NE(btb.lookup(0), nullptr);
    EXPECT_EQ(btb.lookup(16), nullptr);
    EXPECT_NE(btb.lookup(32), nullptr);
}

TEST(BtbTest, UpdateExistingEntry)
{
    StatSet stats;
    Btb btb(smallParams(), stats);
    btb.insert(5, 10, WishKind::None, true);
    btb.insert(5, 20, WishKind::Loop, true);
    const BtbEntry *e = btb.lookup(5);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->target, 20u);
    EXPECT_EQ(e->wish, WishKind::Loop);
}

TEST(RasTest, PushPopLifo)
{
    ReturnAddressStack ras(4);
    ras.push(10);
    ras.push(20);
    ras.push(30);
    EXPECT_EQ(ras.pop(), 30u);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
    EXPECT_EQ(ras.pop(), 0u) << "empty stack returns 0";
}

TEST(RasTest, OverflowDropsOldest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // drops 1
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(RasTest, CheckpointRestore)
{
    ReturnAddressStack ras(8);
    ras.push(10);
    RasCheckpoint ckpt = ras.checkpoint();
    ras.push(20);
    ras.push(30);
    ras.restore(ckpt);
    EXPECT_EQ(ras.pop(), 10u);
}

TEST(RasTest, RestoreRepairsTopAcrossOverflow)
{
    // Regression: the old shift-down overflow moved every entry to a
    // new slot but restore() only repaired the top-of-stack *index*,
    // so a flush spanning an overflow popped a shifted wrong-path
    // target. TOS-value repair must restore the checkpointed top even
    // when wrong-path pushes wrapped the buffer over its slot.
    ReturnAddressStack ras(4);
    ras.push(10);
    ras.push(20);
    RasCheckpoint ckpt = ras.checkpoint();
    // Wrong path: three pushes overflow the 4-entry stack, wrapping
    // onto the slots holding 10 and 20.
    ras.push(91);
    ras.push(92);
    ras.push(93);
    ras.restore(ckpt);
    EXPECT_EQ(ras.pop(), 20u) << "checkpointed top must survive a "
                                 "wrong-path overflow";
}

TEST(RasTest, RestoreRepairsPopThenPushClobber)
{
    // A wrong-path pop followed by a push overwrites the checkpointed
    // top slot in place; value repair covers this too.
    ReturnAddressStack ras(4);
    ras.push(10);
    ras.push(20);
    RasCheckpoint ckpt = ras.checkpoint();
    ras.pop();
    ras.push(99); // lands in 20's slot
    ras.restore(ckpt);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
}

TEST(IndirectTargetCacheTest, LearnsPerHistoryTargets)
{
    SimParams p;
    IndirectTargetCache itc(256, p.indirectHistBits);
    itc.update(50, 0xAA, 111);
    itc.update(50, 0x55, 222);
    EXPECT_EQ(itc.predict(50, 0xAA), 111u);
    EXPECT_EQ(itc.predict(50, 0x55), 222u);
}

TEST(IndirectTargetCacheTest, IndexMasksHistoryToConfiguredBits)
{
    // Regression: the index hashed the full unbounded 64-bit history,
    // so two machines identical in every fingerprinted structure could
    // diverge on history bits older than any architected table. Two
    // histories equal in the low `histBits` must alias.
    IndirectTargetCache itc(256, /*histBits=*/8);
    itc.update(50, 0xAB, 111);
    EXPECT_EQ(itc.predict(50, 0xAB | (1ull << 8)), 111u)
        << "bit 8 must be masked off at histBits=8";
    EXPECT_EQ(itc.predict(50, 0xAB | (0xFFull << 32)), 111u)
        << "high history bits must be masked off";
}

} // namespace
} // namespace wisc
