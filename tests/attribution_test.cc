/**
 * @file
 * Tests for the cycle-attribution engine and the Probe/Sink API
 * (ctest labels: attribution, tsan).
 *
 * The contract under test:
 *  - the CPI stack is exhaustive and exclusive: the attrib.* buckets
 *    sum to exactly core.cycles on every (benchmark, variant) pair;
 *  - the per-static-branch profile table is consistent with the
 *    aggregate branch counters;
 *  - observability is free when off and invisible when on: a null sink
 *    changes nothing, and collecting attribution perturbs no default
 *    statistic (the run cache depends on this separation).
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/runner.hh"
#include "uarch/attribution.hh"

namespace wisc {
namespace {

/** The attrib.* counter names, mirroring the engine's taxonomy. */
const char *const kBuckets[] = {
    "attrib.base",            "attrib.pred_nop",
    "attrib.pred_wait",       "attrib.flush_normal",
    "attrib.flush_wish_high", "attrib.flush_loop_early",
    "attrib.flush_loop_noexit", "attrib.cache_miss",
    "attrib.fetch_stall",     "attrib.rob_iq_full",
};

std::uint64_t
stackSum(const RunOutcome &r)
{
    std::uint64_t sum = 0;
    for (const char *name : kBuckets)
        sum += r.require(name);
    return sum;
}

RunOutcome
attributedRun(const CompiledWorkload &w, BinaryVariant v,
              const SimParams &base)
{
    SimParams p = base;
    p.collectAttribution = true;
    p.collectBranchProfile = true;
    return captureRun(programFor(w, v, InputSet::A), p);
}

/** Every benchmark × every binary variant: the CPI stack must account
 *  for each cycle exactly once. This is the engine's hard invariant
 *  (it also asserts internally; this proves it end-to-end through the
 *  harness snapshot). */
TEST(AttributionInvariant, CpiStackSumsToCyclesOnEveryVariant)
{
    for (const std::string &name : workloadNames()) {
        CompiledWorkload w = compileWorkload(name);
        for (BinaryVariant v : kAllVariants) {
            RunOutcome r = attributedRun(w, v, SimParams{});
            ASSERT_TRUE(r.result.halted)
                << name << "/" << variantName(v);
            EXPECT_EQ(stackSum(r), r.result.cycles)
                << name << "/" << variantName(v);

            // Binaries without wish hints can only flush "normally".
            if (v == BinaryVariant::Normal || v == BinaryVariant::BaseDef
                || v == BinaryVariant::BaseMax) {
                EXPECT_EQ(r.require("attrib.flush_wish_high"), 0u)
                    << name;
                EXPECT_EQ(r.require("attrib.flush_loop_early"), 0u)
                    << name;
                EXPECT_EQ(r.require("attrib.flush_loop_noexit"), 0u)
                    << name;
            }
        }
    }
}

/** The invariant must also hold on non-default machines — the poll
 *  scheduler, the select-µop predication mechanism, a small window,
 *  and the oracle knobs all classify differently. */
TEST(AttributionInvariant, CpiStackSumsToCyclesOnVariantMachines)
{
    CompiledWorkload w = compileWorkload("gzip");

    SimParams poll;
    poll.pollScheduler = true;
    SimParams select;
    select.predMech = PredMechanism::SelectUop;
    SimParams small;
    small.robSize = 128;
    small.iqSize = 32;
    small.lsqSize = 64;
    SimParams noDep;
    noDep.oracle.noDepend = true;
    SimParams perfect;
    perfect.oracle.perfectCBP = true;

    for (const SimParams &p : {poll, select, small, noDep, perfect}) {
        RunOutcome r =
            attributedRun(w, BinaryVariant::WishJumpJoinLoop, p);
        ASSERT_TRUE(r.result.halted);
        EXPECT_EQ(stackSum(r), r.result.cycles);
    }

    // A perfect predictor never flushes, so no flush bucket may charge.
    RunOutcome r =
        attributedRun(w, BinaryVariant::WishJumpJoinLoop, perfect);
    EXPECT_EQ(r.require("attrib.flush_normal"), 0u);
    EXPECT_EQ(r.require("attrib.flush_wish_high"), 0u);
    EXPECT_EQ(r.require("attrib.flush_loop_early"), 0u);
    EXPECT_EQ(r.require("attrib.flush_loop_noexit"), 0u);
}

/** The per-PC profile must agree with the aggregate counters: summing
 *  the table's count/mispred columns reproduces core.cond_branches and
 *  core.branch_mispredicts, and confidence-classified rows decompose
 *  into the four hi/lo × correct/wrong cells. */
TEST(AttributionInvariant, BranchProfileMatchesAggregateCounters)
{
    CompiledWorkload w = compileWorkload("vpr");
    RunOutcome r =
        attributedRun(w, BinaryVariant::WishJumpJoinLoop, SimParams{});

    ASSERT_TRUE(r.tables.count("core.branch_profile"));
    const StatTable &t = r.tables.at("core.branch_profile");
    ASSERT_EQ(t.columns().size(),
              static_cast<std::size_t>(kBpNumCols));
    EXPECT_FALSE(t.rows().empty());

    std::uint64_t count = 0, mispred = 0, classified = 0;
    for (const auto &row : t.rows()) {
        count += row.second[kBpCount];
        mispred += row.second[kBpMispred];
        classified += row.second[kBpHiCorrect] + row.second[kBpHiWrong] +
                      row.second[kBpLoCorrect] + row.second[kBpLoWrong];
        // A row's confidence cells never exceed its total count.
        EXPECT_LE(row.second[kBpHiCorrect] + row.second[kBpHiWrong] +
                      row.second[kBpLoCorrect] + row.second[kBpLoWrong],
                  row.second[kBpCount]);
    }
    EXPECT_EQ(count, r.require("core.cond_branches"));
    EXPECT_EQ(mispred, r.require("core.branch_mispredicts"));
    EXPECT_GT(classified, 0u)
        << "wish branches must be confidence-classified";
}

/** A sink with every handler defaulted must be behaviorally invisible:
 *  identical timing, identical statistics. */
TEST(ProbeApi, NullSinkLeavesTheRunBitIdentical)
{
    CompiledWorkload w = compileWorkload("gzip");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    RunOutcome plain = captureRun(prog, SimParams{});
    ProbeSink null; // all handlers default to empty bodies
    RunOutcome observed = captureRun(prog, SimParams{}, {&null});

    EXPECT_EQ(plain.result.cycles, observed.result.cycles);
    EXPECT_EQ(plain.result.retiredUops, observed.result.retiredUops);
    EXPECT_EQ(plain.result.memFingerprint,
              observed.result.memFingerprint);
    EXPECT_EQ(plain.stats, observed.stats);
    EXPECT_EQ(plain.hists, observed.hists);
}

/** Turning attribution on adds the attrib.* counters and the profile
 *  table and nothing else: every default statistic stays bit-identical,
 *  so golden runs and cached entries are unaffected by observability. */
TEST(ProbeApi, AttributionAddsStatsWithoutPerturbingAny)
{
    CompiledWorkload w = compileWorkload("parser");
    Program prog =
        programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A);

    RunOutcome plain = captureRun(prog, SimParams{});
    SimParams p;
    p.collectAttribution = true;
    p.collectBranchProfile = true;
    RunOutcome attr = captureRun(prog, p);

    EXPECT_EQ(plain.result.cycles, attr.result.cycles);
    EXPECT_EQ(plain.result.memFingerprint, attr.result.memFingerprint);
    EXPECT_TRUE(plain.tables.empty())
        << "tables must be opt-in (golden stats depend on it)";
    for (const auto &kv : plain.stats) {
        auto it = attr.stats.find(kv.first);
        ASSERT_NE(it, attr.stats.end()) << kv.first;
        EXPECT_EQ(it->second, kv.second) << kv.first;
    }
    // And the additions are exactly the attrib.* counters.
    for (const auto &kv : attr.stats)
        if (!plain.stats.count(kv.first))
            EXPECT_EQ(kv.first.rfind("attrib.", 0), 0u) << kv.first;
}

} // namespace
} // namespace wisc
