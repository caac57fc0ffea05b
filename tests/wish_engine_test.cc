/**
 * @file
 * Unit tests for the wish-branch front-end hardware: the Figure-8 mode
 * state machine, the Table-1 multi-wish-join prediction rules, the
 * §3.5.3 predicate dependency elimination buffer (with complement
 * pairing), the wish-loop last-prediction buffer, loop instances, and
 * the overestimating loop predictor.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "uarch/wish.hh"

namespace wisc {
namespace {

class WishEngineTest : public ::testing::Test
{
  protected:
    WishEngineTest() : engine_(stats_, /*loopBias=*/false) {}

    StatSet stats_;
    WishEngine engine_;
};

TEST_F(WishEngineTest, StartsInNormalMode)
{
    EXPECT_EQ(engine_.mode(), FrontEndMode::Normal);
}

TEST_F(WishEngineTest, HighConfJumpEntersHighConfMode)
{
    WishDecision d =
        engine_.onWishBranch(10, WishKind::Jump, 1, true, true, 50);
    EXPECT_EQ(d.branchMode, FrontEndMode::HighConf);
    EXPECT_TRUE(d.effectiveTaken) << "predictor is followed";
    EXPECT_EQ(engine_.mode(), FrontEndMode::HighConf);
}

TEST_F(WishEngineTest, LowConfJumpForcesNotTaken)
{
    WishDecision d =
        engine_.onWishBranch(10, WishKind::Jump, 1, true, false, 50);
    EXPECT_EQ(d.branchMode, FrontEndMode::LowConf);
    EXPECT_FALSE(d.effectiveTaken) << "low confidence forces not-taken";
    EXPECT_EQ(engine_.mode(), FrontEndMode::LowConf);
}

TEST_F(WishEngineTest, Table1JoinsForcedNotTakenInLowConfMode)
{
    // Row 4 of Table 1: jump low -> everything not-taken.
    engine_.onWishBranch(10, WishKind::Jump, 1, true, false, 50);
    WishDecision join1 =
        engine_.onWishBranch(20, WishKind::Join, 2, true, true, 50);
    EXPECT_FALSE(join1.effectiveTaken)
        << "a join after a low-confidence jump is not-taken even if its "
           "own confidence is high";
    EXPECT_EQ(join1.branchMode, FrontEndMode::LowConf);
}

TEST_F(WishEngineTest, Table1JoinUsesPredictorWhenAllHigh)
{
    // Row 1 of Table 1: all high -> all use the predictor.
    engine_.onWishBranch(10, WishKind::Jump, 1, false, true, 50);
    WishDecision join =
        engine_.onWishBranch(20, WishKind::Join, 2, true, true, 60);
    EXPECT_TRUE(join.effectiveTaken);
    EXPECT_EQ(join.branchMode, FrontEndMode::HighConf);
}

TEST_F(WishEngineTest, Table1LowConfJoinEntersLowMode)
{
    // Row 2/3 of Table 1: the first low-confidence join flips the mode;
    // later joins are forced not-taken.
    engine_.onWishBranch(10, WishKind::Jump, 1, false, true, 50);
    WishDecision j1 =
        engine_.onWishBranch(20, WishKind::Join, 2, true, false, 60);
    EXPECT_FALSE(j1.effectiveTaken);
    EXPECT_EQ(engine_.mode(), FrontEndMode::LowConf);
    WishDecision j2 =
        engine_.onWishBranch(30, WishKind::Join, 3, true, true, 70);
    EXPECT_FALSE(j2.effectiveTaken);
}

TEST_F(WishEngineTest, TargetFetchedExitsLowConfMode)
{
    engine_.onWishBranch(10, WishKind::Jump, 1, true, false, 50);
    EXPECT_EQ(engine_.mode(), FrontEndMode::LowConf);
    engine_.onInstructionFetched(11);
    engine_.onInstructionFetched(49);
    EXPECT_EQ(engine_.mode(), FrontEndMode::LowConf);
    engine_.onInstructionFetched(50); // the jump's target
    EXPECT_EQ(engine_.mode(), FrontEndMode::Normal);
}

TEST_F(WishEngineTest, FlushReturnsToNormal)
{
    engine_.onWishBranch(10, WishKind::Jump, 1, true, false, 50);
    engine_.onFlush();
    EXPECT_EQ(engine_.mode(), FrontEndMode::Normal);
}

TEST_F(WishEngineTest, PredicateBufferArmsOnHighConf)
{
    engine_.noteCompare(1, 2); // cmp wrote (p1, p2 = !p1)
    engine_.onWishBranch(10, WishKind::Jump, 1, true, true, 50);

    auto p1 = engine_.predictedPredicate(1);
    auto p2 = engine_.predictedPredicate(2);
    ASSERT_TRUE(p1.has_value());
    ASSERT_TRUE(p2.has_value());
    EXPECT_TRUE(*p1) << "taken wish jump implies TRUE predicate";
    EXPECT_FALSE(*p2) << "the complement is predicted FALSE";
}

TEST_F(WishEngineTest, PredicateBufferPredictsFalseWhenNotTaken)
{
    engine_.noteCompare(1, 2);
    engine_.onWishBranch(10, WishKind::Jump, 1, false, true, 50);
    EXPECT_FALSE(*engine_.predictedPredicate(1));
    EXPECT_TRUE(*engine_.predictedPredicate(2));
}

TEST_F(WishEngineTest, PredicateBufferNotArmedOnLowConf)
{
    engine_.noteCompare(1, 2);
    engine_.onWishBranch(10, WishKind::Jump, 1, true, false, 50);
    EXPECT_FALSE(engine_.predictedPredicate(1).has_value())
        << "low-confidence mode does not predict the predicate";
}

TEST_F(WishEngineTest, PredicateBufferInvalidatedByWriter)
{
    engine_.noteCompare(1, 2);
    engine_.onWishBranch(10, WishKind::Jump, 1, true, true, 50);
    ASSERT_TRUE(engine_.predictedPredicate(1).has_value());
    engine_.notePredWrite(1); // decode sees an instruction writing p1
    EXPECT_FALSE(engine_.predictedPredicate(1).has_value());
    EXPECT_TRUE(engine_.predictedPredicate(2).has_value())
        << "only the written predicate is invalidated";
}

TEST_F(WishEngineTest, PredicateBufferClearedByFlush)
{
    engine_.noteCompare(1, 2);
    engine_.onWishBranch(10, WishKind::Jump, 1, true, true, 50);
    engine_.onFlush();
    EXPECT_FALSE(engine_.predictedPredicate(1).has_value());
    EXPECT_FALSE(engine_.predictedPredicate(2).has_value());
}

TEST_F(WishEngineTest, LoopInstanceBumpsOnPredictedExit)
{
    std::uint32_t i0 = engine_.loopInstance(10);
    engine_.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
    EXPECT_EQ(engine_.loopInstance(10), i0) << "taken: same instance";
    engine_.onWishBranch(10, WishKind::Loop, 1, false, false, 10);
    EXPECT_EQ(engine_.loopInstance(10), i0 + 1) << "exit: new instance";
}

TEST_F(WishEngineTest, LowConfLoopStaysLowUntilExit)
{
    engine_.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
    EXPECT_EQ(engine_.mode(), FrontEndMode::LowConf);
    engine_.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
    EXPECT_EQ(engine_.mode(), FrontEndMode::LowConf);
    engine_.onWishBranch(10, WishKind::Loop, 1, false, false, 10);
    EXPECT_EQ(engine_.mode(), FrontEndMode::Normal)
        << "front-end exit leaves low-confidence mode (Figure 8)";
}

TEST_F(WishEngineTest, HighConfLoopArmsPredicate)
{
    engine_.onWishBranch(10, WishKind::Loop, 3, true, true, 10);
    ASSERT_TRUE(engine_.predictedPredicate(3).has_value());
    EXPECT_TRUE(*engine_.predictedPredicate(3));
}

TEST(WishLoopBiasTest, OverestimatesAfterLearningTrips)
{
    StatSet stats;
    WishEngine e(stats, /*loopBias=*/true);

    // Teach the engine a trip count of ~6 (predictor exits at 6), then
    // drain any suppressed instance so the next entry starts fresh.
    for (int rep = 0; rep < 8; ++rep) {
        for (int i = 0; i < 5; ++i)
            e.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
        for (int guard = 0; guard < 32; ++guard) {
            WishDecision d =
                e.onWishBranch(10, WishKind::Loop, 1, false, false, 10);
            if (!d.effectiveTaken)
                break;
        }
    }

    // Now the hybrid wants to exit after 2 iterations; the bias should
    // keep predicting taken (low confidence).
    e.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
    e.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
    WishDecision d = e.onWishBranch(10, WishKind::Loop, 1, false, false, 10);
    EXPECT_TRUE(d.effectiveTaken)
        << "the overestimating predictor overrides an early exit";
    EXPECT_GT(stats.get("wish.loop_bias_overrides"), 0u);
}

TEST(WishLoopBiasTest, NoOverrideWhenDisabled)
{
    StatSet stats;
    WishEngine e(stats, /*loopBias=*/false);
    for (int rep = 0; rep < 8; ++rep) {
        for (int i = 0; i < 5; ++i)
            e.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
        e.onWishBranch(10, WishKind::Loop, 1, false, false, 10);
    }
    e.onWishBranch(10, WishKind::Loop, 1, true, false, 10);
    WishDecision d = e.onWishBranch(10, WishKind::Loop, 1, false, false, 10);
    EXPECT_FALSE(d.effectiveTaken);
    EXPECT_EQ(stats.get("wish.loop_bias_overrides"), 0u);
}

} // namespace
} // namespace wisc
