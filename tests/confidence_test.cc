/**
 * @file
 * Unit tests for the JRS confidence estimator: streak thresholds, reset
 * on misprediction, both cold-miss policies, history sensitivity, and
 * tagged-set eviction.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "uarch/confidence.hh"
#include "uarch/updown_conf.hh"

namespace wisc {
namespace {

SimParams
confParams(bool missHigh, unsigned threshold = 4)
{
    SimParams p;
    p.confSets = 16;
    p.confWays = 2;
    p.confThreshold = threshold;
    p.confCtrBits = 4;
    p.confMissIsHigh = missHigh;
    return p;
}

TEST(ConfidenceTest, ConservativeColdMissIsLow)
{
    StatSet stats;
    JrsConfidenceEstimator c(confParams(false), stats);
    EXPECT_FALSE(c.estimate(100, 0));
}

TEST(ConfidenceTest, OptimisticColdMissIsHigh)
{
    StatSet stats;
    JrsConfidenceEstimator c(confParams(true), stats);
    EXPECT_TRUE(c.estimate(100, 0));
}

TEST(ConfidenceTest, StreakReachesThreshold)
{
    StatSet stats;
    JrsConfidenceEstimator c(confParams(false, 4), stats);
    for (int i = 0; i < 3; ++i)
        c.update(100, 0, true);
    EXPECT_FALSE(c.estimate(100, 0)) << "3 < threshold 4";
    c.update(100, 0, true);
    EXPECT_TRUE(c.estimate(100, 0));
}

TEST(ConfidenceTest, MispredictionResetsCounter)
{
    StatSet stats;
    JrsConfidenceEstimator c(confParams(false, 4), stats);
    for (int i = 0; i < 8; ++i)
        c.update(100, 0, true);
    EXPECT_TRUE(c.estimate(100, 0));
    c.update(100, 0, false);
    EXPECT_FALSE(c.estimate(100, 0));
}

TEST(ConfidenceTest, OptimisticAllocatesOnlyOnMispredict)
{
    StatSet stats;
    JrsConfidenceEstimator c(confParams(true, 4), stats);
    // Correct updates on a cold entry leave it unallocated: still high.
    c.update(100, 0, true);
    EXPECT_TRUE(c.estimate(100, 0));
    // A mispredict allocates with counter 0: low until re-trained.
    c.update(100, 0, false);
    EXPECT_FALSE(c.estimate(100, 0));
    for (int i = 0; i < 4; ++i)
        c.update(100, 0, true);
    EXPECT_TRUE(c.estimate(100, 0));
}

TEST(ConfidenceTest, HistoryDistinguishesContexts)
{
    StatSet stats;
    JrsConfidenceEstimator c(confParams(false, 4), stats);
    for (int i = 0; i < 8; ++i)
        c.update(100, 0xAB, true);
    EXPECT_TRUE(c.estimate(100, 0xAB));
    EXPECT_FALSE(c.estimate(100, 0x13))
        << "a different history context is a different entry";
}

TEST(ConfidenceTest, ZeroHistoryBitsIgnoresHistory)
{
    SimParams p = confParams(false, 4);
    p.confHistBits = 0;
    StatSet stats;
    JrsConfidenceEstimator c(p, stats);
    for (int i = 0; i < 8; ++i)
        c.update(100, 0xAB, true);
    EXPECT_TRUE(c.estimate(100, 0xFF))
        << "with 0 history bits, all contexts share one entry";
}

TEST(ConfidenceTest, CounterSaturates)
{
    StatSet stats;
    JrsConfidenceEstimator c(confParams(false, 15), stats);
    for (int i = 0; i < 100; ++i)
        c.update(100, 0, true);
    EXPECT_TRUE(c.estimate(100, 0)) << "saturated at 4-bit maximum";
}

TEST(UpDownConfidenceTest, ColdIsLow)
{
    SimParams p;
    StatSet stats;
    UpDownConfidenceEstimator c(p, stats);
    EXPECT_FALSE(c.estimate(100, 0));
}

TEST(UpDownConfidenceTest, ToleratesRareRegularMispredicts)
{
    // 3% misprediction rate: a JRS streak counter with threshold 8 is
    // high only ~75% of the time; the rate-based up/down counter should
    // stay high almost always once warm.
    SimParams p;
    StatSet stats;
    UpDownConfidenceEstimator c(p, stats);
    // Warm up.
    for (int i = 0; i < 200; ++i)
        c.update(100, 0, i % 33 != 0);
    unsigned high = 0;
    for (int i = 0; i < 330; ++i) {
        if (c.estimate(100, 0))
            ++high;
        c.update(100, 0, i % 33 != 0);
    }
    EXPECT_GT(high, 300u);
}

TEST(UpDownConfidenceTest, HardBranchStaysLow)
{
    SimParams p;
    StatSet stats;
    UpDownConfidenceEstimator c(p, stats);
    Rng rng(5);
    for (int i = 0; i < 300; ++i)
        c.update(100, 0, rng.chance(0.6)); // 40% mispredicts
    unsigned high = 0;
    for (int i = 0; i < 100; ++i) {
        if (c.estimate(100, 0))
            ++high;
        c.update(100, 0, rng.chance(0.6));
    }
    EXPECT_LT(high, 20u);
}

} // namespace
} // namespace wisc
