/**
 * @file
 * Predictor-zoo tests: the speculative-update/recover history contract
 * shared by every IBranchPredictor (checked against an oracle that only
 * ever observes resolved outcomes in order, across the fuzzer's
 * SimParams matrix), TAGE learning/allocation/confidence behavior, the
 * cheap classic predictors, and the factory wiring.
 */

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "fuzz/fuzzer.hh"
#include "uarch/bpred.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/simple_bpred.hh"
#include "uarch/tage.hh"

namespace wisc {
namespace {

const PredictorKind kZoo[] = {PredictorKind::Hybrid,
                              PredictorKind::Bimodal,
                              PredictorKind::TwoLevel,
                              PredictorKind::Tage};

const char *
kindName(PredictorKind k)
{
    switch (k) {
      case PredictorKind::Hybrid: return "hybrid";
      case PredictorKind::Bimodal: return "bimodal";
      case PredictorKind::TwoLevel: return "two_level";
      case PredictorKind::Tage: return "tage";
    }
    return "?";
}

/** One in-flight predicted branch, as the core would track it. */
struct InFlight
{
    std::uint32_t pc;
    bool predicted;
    bool actual;
    BpredCheckpoint ckpt;
};

/**
 * Drive a predictor through a randomized fetch/resolve schedule with a
 * bounded in-flight window, flushing (recover + discard younger) on
 * every mispredict, and check that whenever the window drains the
 * speculative global history equals an oracle shift register that only
 * ever observed resolved outcomes in order. This is the recovery
 * contract the core relies on: wrong-path history bits must leave no
 * residue.
 */
void
checkHistoryOracle(PredictorKind kind, const SimParams &params,
                   std::uint64_t seed, const std::string &label)
{
    SimParams p = params;
    p.predictor = kind;
    StatSet stats;
    auto bp = makeBranchPredictor(p, stats);

    Rng rng(seed);
    std::deque<InFlight> window;
    std::uint64_t oracle = 0;
    unsigned drains = 0;

    for (int step = 0; step < 4000; ++step) {
        bool fetch = window.size() < 6 &&
                     (window.empty() || rng.range(0, 2) != 0);
        if (fetch) {
            InFlight f;
            f.pc = static_cast<std::uint32_t>(rng.range(1, 24));
            // Per-PC biased outcomes so predictions are sometimes
            // right and sometimes wrong.
            f.actual = rng.range(0, 9) < (f.pc % 10);
            f.predicted = bp->predict(f.pc, f.ckpt);
            bp->updateSpeculative(f.pc, f.predicted);
            window.push_back(f);
            continue;
        }

        // Resolve + retire the oldest in-flight branch.
        InFlight f = window.front();
        window.pop_front();
        if (f.predicted != f.actual) {
            // Flush: younger speculation (and its history bits) dies.
            bp->recover(f.pc, f.actual, f.ckpt);
            window.clear();
        }
        bp->train(f.pc, f.actual, f.ckpt);
        oracle = (oracle << 1) | (f.actual ? 1 : 0);

        if (window.empty()) {
            ++drains;
            ASSERT_EQ(bp->globalHistory(), oracle)
                << label << ": speculative history diverged from the "
                << "resolved-outcome oracle at step " << step;
        }
    }
    EXPECT_GT(drains, 100u) << label << ": schedule never drained; "
                               "the invariant was barely exercised";
}

class ZooHistoryContract
    : public ::testing::TestWithParam<PredictorKind>
{
};

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooHistoryContract, ::testing::ValuesIn(kZoo),
    [](const ::testing::TestParamInfo<PredictorKind> &info) {
        return kindName(info.param);
    });

TEST_P(ZooHistoryContract, RecoverMatchesResolvedOutcomeOracle)
{
    checkHistoryOracle(GetParam(), SimParams{}, 7,
                       std::string("default/") + kindName(GetParam()));
}

TEST_P(ZooHistoryContract, HoldsAcrossFuzzerParamsMatrix)
{
    // The same invariant on every machine point the differential
    // fuzzer exercises (ConfKind is irrelevant here — confidence never
    // touches predictor history — but geometry knobs are not).
    for (const ParamsPoint &pt : defaultParamsMatrix(false))
        checkHistoryOracle(GetParam(), pt.params, 11,
                           pt.label + "/" + kindName(GetParam()));
}

TEST_P(ZooHistoryContract, DeterministicAcrossInstances)
{
    SimParams p;
    p.predictor = GetParam();
    StatSet sa, sb;
    auto a = makeBranchPredictor(p, sa);
    auto b = makeBranchPredictor(p, sb);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        auto pc = static_cast<std::uint32_t>(rng.range(1, 40));
        bool actual = rng.range(0, 1) != 0;
        BpredCheckpoint ca, cb;
        bool pa = a->predict(pc, ca);
        bool pb = b->predict(pc, cb);
        ASSERT_EQ(pa, pb) << "instance divergence at step " << i;
        ASSERT_EQ(ca.globalHistory, cb.globalHistory);
        a->updateSpeculative(pc, pa);
        b->updateSpeculative(pc, pb);
        a->train(pc, actual, ca);
        b->train(pc, actual, cb);
        a->recover(pc, actual, ca);
        b->recover(pc, actual, cb);
    }
}

// ---- TAGE specifics ---------------------------------------------------

SimParams
smallTage()
{
    SimParams p;
    p.predictor = PredictorKind::Tage;
    p.tageTables = 4;
    p.tageEntriesLog2 = 8;
    p.tageBaseEntriesLog2 = 10;
    p.tageMinHist = 2;
    p.tageMaxHist = 32;
    p.tageResetPeriod = 4096;
    return p;
}

TEST(TageTest, GeometricHistoryLengthsAreStrictlyIncreasing)
{
    StatSet stats;
    SimParams p = smallTage();
    TagePredictor bp(p, stats);
    EXPECT_EQ(bp.historyLength(0), p.tageMinHist);
    EXPECT_EQ(bp.historyLength(p.tageTables - 1), p.tageMaxHist);
    for (unsigned t = 1; t < p.tageTables; ++t)
        EXPECT_GT(bp.historyLength(t), bp.historyLength(t - 1));
}

TEST(TageTest, LearnsLongPatternBimodalCannot)
{
    // Period-12 direction pattern: per-PC 2-bit counters hover near
    // chance, but a 12-bit history slice pins every phase exactly.
    StatSet st;
    TagePredictor tage(smallTage(), st);
    BimodalPredictor bim(SimParams{});
    int tageCorrect = 0, bimCorrect = 0, total = 0;
    for (int i = 0; i < 6000; ++i) {
        bool dir = (i % 12) < 5;
        BpredCheckpoint ct, cb;
        bool pt = tage.predict(9, ct);
        bool pb = bim.predict(9, cb);
        if (i >= 3000) {
            ++total;
            tageCorrect += pt == dir;
            bimCorrect += pb == dir;
        }
        tage.updateSpeculative(9, pt);
        bim.updateSpeculative(9, pb);
        tage.train(9, dir, ct);
        bim.train(9, dir, cb);
        tage.recover(9, dir, ct); // keep history exact
        bim.recover(9, dir, cb);
    }
    EXPECT_GT(static_cast<double>(tageCorrect) / total, 0.95)
        << "TAGE failed to capture a period-12 pattern";
    EXPECT_LT(static_cast<double>(bimCorrect) / total, 0.75)
        << "pattern is bimodal-predictable; test is vacuous";
}

TEST(TageTest, MispredictsAllocateTaggedEntries)
{
    StatSet stats;
    TagePredictor bp(smallTage(), stats);
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        auto pc = static_cast<std::uint32_t>(rng.range(1, 8));
        bool dir = rng.range(0, 1) != 0;
        BpredCheckpoint c;
        bool pred = bp.predict(pc, c);
        bp.updateSpeculative(pc, pred);
        bp.train(pc, dir, c);
        bp.recover(pc, dir, c);
    }
    EXPECT_GT(stats.get("bpred.tage.allocs"), 0u);
    EXPECT_GT(stats.get("bpred.tage.provider_hits"), 0u);
}

TEST(TageConfidenceTest, StableBranchHighColdBranchLow)
{
    StatSet stats;
    TagePredictor bp(smallTage(), stats);
    TageConfidence conf(bp, stats);
    // Cold PC: base counter is at its weakly-taken reset value.
    EXPECT_FALSE(conf.estimate(123, 0));
    // Saturate an always-taken branch.
    for (int i = 0; i < 100; ++i) {
        BpredCheckpoint c;
        bool pred = bp.predict(7, c);
        bp.updateSpeculative(7, pred);
        bp.train(7, true, c);
        bp.recover(7, true, c);
    }
    EXPECT_TRUE(conf.estimate(7, bp.globalHistory()));
    EXPECT_GT(stats.get("conf.queries"), 0u);
}

// ---- cheap classics ---------------------------------------------------

TEST(BimodalTest, LearnsBiasedBranch)
{
    BimodalPredictor bp(SimParams{});
    for (int i = 0; i < 10; ++i) {
        BpredCheckpoint c;
        bool pred = bp.predict(3, c);
        bp.updateSpeculative(3, pred);
        bp.train(3, false, c);
        bp.recover(3, false, c);
    }
    BpredCheckpoint c;
    EXPECT_FALSE(bp.predict(3, c));
}

TEST(TwoLevelTest, LearnsAlternationViaGlobalHistory)
{
    SimParams p;
    p.twoLevelEntries = 4096;
    p.twoLevelHistBits = 6;
    TwoLevelPredictor bp(p);
    bool dir = false;
    int correct = 0, total = 0;
    for (int i = 0; i < 800; ++i) {
        dir = !dir;
        BpredCheckpoint c;
        bool pred = bp.predict(21, c);
        if (i >= 400) {
            ++total;
            correct += pred == dir;
        }
        bp.updateSpeculative(21, pred);
        bp.train(21, dir, c);
        bp.recover(21, dir, c);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

// ---- factory wiring ---------------------------------------------------

TEST(BpredFactoryTest, BuildsEveryKind)
{
    for (PredictorKind k : kZoo) {
        SimParams p;
        p.predictor = k;
        StatSet stats;
        auto bp = makeBranchPredictor(p, stats);
        ASSERT_NE(bp, nullptr) << kindName(k);
        BpredCheckpoint c;
        bp->predict(1, c); // must not throw
    }
}

TEST(BpredFactoryTest, TageConfidenceRequiresTagePredictor)
{
    SimParams p;
    p.confKind = ConfKind::Tage; // predictor left at Hybrid
    StatSet stats;
    auto bp = makeBranchPredictor(p, stats);
    EXPECT_THROW(makeConfidenceEstimator(p, stats, *bp), FatalError);
}

TEST(BpredFactoryTest, TagePlusTageConfidenceWiresUp)
{
    SimParams p;
    p.predictor = PredictorKind::Tage;
    p.confKind = ConfKind::Tage;
    StatSet stats;
    auto bp = makeBranchPredictor(p, stats);
    auto conf = makeConfidenceEstimator(p, stats, *bp);
    ASSERT_NE(conf, nullptr);
    conf->estimate(1, 0);
    EXPECT_EQ(stats.get("conf.queries"), 1u);
}

} // namespace
} // namespace wisc
