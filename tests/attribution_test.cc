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

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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

/** Sums the profile's count and mispred columns against
 *  core.cond_branches and core.branch_mispredicts, checks that no row's
 *  confidence cells exceed its count, and returns the sum of those
 *  cells. */
std::uint64_t
expectProfileMatchesCounters(const RunOutcome &r, const char *machine)
{
    const StatTable &t = r.require<StatTable>("core.branch_profile");
    if (t.columns().size() != static_cast<std::size_t>(kBpNumCols)) {
        ADD_FAILURE() << machine << ": " << t.columns().size()
                      << " profile columns";
        return 0;
    }
    EXPECT_FALSE(t.rows().empty()) << machine;

    std::uint64_t count = 0, mispred = 0, classified = 0;
    for (const auto &row : t.rows()) {
        const std::uint64_t conf =
            row.second[kBpHiCorrect] + row.second[kBpHiWrong] +
            row.second[kBpLoCorrect] + row.second[kBpLoWrong];
        count += row.second[kBpCount];
        mispred += row.second[kBpMispred];
        classified += conf;
        EXPECT_LE(conf, row.second[kBpCount]) << machine;
    }
    EXPECT_EQ(count, r.require("core.cond_branches")) << machine;
    EXPECT_EQ(mispred, r.require("core.branch_mispredicts")) << machine;
    return classified;
}

/** The per-PC profile must agree with the aggregate counters on every
 *  machine that builds one: the default machine (vpr), and vortex
 *  wish-jj under FetchGate, MergePoint with its regions open, and
 *  PERFECT-CBP. A merge-point region branch is counted in neither. */
TEST(AttributionInvariant, BranchProfileMatchesAggregateCounters)
{
    CompiledWorkload vpr = compileWorkload("vpr");
    RunOutcome def =
        attributedRun(vpr, BinaryVariant::WishJumpJoinLoop, SimParams{});
    EXPECT_GT(expectProfileMatchesCounters(def, "default"), 0u)
        << "wish branches must be confidence-classified";

    CompiledWorkload vortex = compileWorkload("vortex");
    const Program prog =
        programFor(vortex, BinaryVariant::WishJumpJoin, InputSet::A);
    SimParams gate;
    gate.dynPred = DynPredMode::FetchGate;
    SimParams merge;
    merge.dynPred = DynPredMode::MergePoint;
    SimParams perfect;
    perfect.oracle.perfectCBP = true;
    for (auto [p, machine] : {std::pair{gate, "FetchGate"},
                              std::pair{merge, "MergePoint"},
                              std::pair{perfect, "PERFECT-CBP"}}) {
        p.collectBranchProfile = true;
        RunOutcome r = captureRun(prog, p);
        expectProfileMatchesCounters(r, machine);
        if (p.dynPred == DynPredMode::MergePoint) {
            EXPECT_GT(r.require("dyn.region_uops"), 0u)
                << "no merge-point region opened: the region rule goes "
                   "untested";
        }
    }
}

/** Only the branches whose confidence the front end estimated are
 *  booked in the profile's four confidence columns: every retired wish
 *  branch on a wish machine; every conditional branch outside a
 *  merge-point region once dynamic predication is on; and none under
 *  PERFECT-CBP, which asks the estimator nothing. */
TEST(AttributionInvariant, ProfileBooksOnlyTheEstimatesFetchMade)
{
    CompiledWorkload w = compileWorkload("vortex");
    const Program prog =
        programFor(w, BinaryVariant::WishJumpJoin, InputSet::A);
    auto confSum = [](const RunOutcome &r) {
        std::uint64_t sum = 0;
        for (const auto &row :
             r.require<StatTable>("core.branch_profile").rows())
            sum += row.second[kBpHiCorrect] + row.second[kBpHiWrong] +
                   row.second[kBpLoCorrect] + row.second[kBpLoWrong];
        return sum;
    };
    auto profiled = [&](SimParams p) {
        p.collectBranchProfile = true;
        return captureRun(prog, p);
    };

    // dynPred Off: the retired wish branches, one outcome counter each.
    RunOutcome off = profiled(SimParams{});
    std::uint64_t wishRetired = 0;
    for (const auto &[name, value] : off.stats)
        if (name.rfind("wish.jump.", 0) == 0 ||
            name.rfind("wish.join.", 0) == 0 ||
            name.rfind("wish.loop.", 0) == 0)
            wishRetired += value;
    EXPECT_GT(wishRetired, 0u);
    EXPECT_EQ(confSum(off), wishRetired);

    for (DynPredMode mode : {DynPredMode::FetchGate, DynPredMode::MergePoint}) {
        SimParams p;
        p.dynPred = mode;
        RunOutcome r = profiled(p);
        EXPECT_EQ(confSum(r), r.require("core.cond_branches"))
            << (mode == DynPredMode::FetchGate ? "FetchGate" : "MergePoint");
    }
    SimParams merge;
    merge.dynPred = DynPredMode::MergePoint;
    EXPECT_GT(profiled(merge).require("dyn.region_uops"), 0u)
        << "no merge-point region opened: the region rule goes untested";

    SimParams perfect;
    perfect.oracle.perfectCBP = true;
    RunOutcome pr = profiled(perfect);
    EXPECT_EQ(pr.require("conf.queries"), 0u);
    EXPECT_EQ(confSum(pr), 0u);
}

/** Requires every fetch probe to be closed by exactly one retire or
 *  squash probe, and nothing to be closed that was not fetched. Uids
 *  are handed out densely from 1, so the state is a flat vector. */
class FetchClosure : public ProbeSink
{
  public:
    void
    onFetch(const FetchProbe &p) override
    {
        if (p.uid >= state_.size())
            state_.resize(p.uid + 1, kUnseen);
        if (state_[p.uid] != kUnseen)
            ++strays_;
        state_[p.uid] = kOpen;
    }
    void onRetire(const RetireProbe &p) override { close(p.uid); }
    void onSquash(const SquashProbe &p) override { close(p.uid); }

    std::uint64_t
    unclosed() const
    {
        std::uint64_t n = 0;
        for (std::uint8_t s : state_)
            n += s == kOpen;
        return n;
    }
    /** Fetched twice, closed twice, or closed without a fetch. */
    std::uint64_t strays() const { return strays_; }

  private:
    enum : std::uint8_t { kUnseen, kOpen, kClosed };

    void
    close(std::uint64_t uid)
    {
        if (uid < state_.size() && state_[uid] == kOpen)
            state_[uid] = kClosed;
        else
            ++strays_;
    }

    std::vector<std::uint8_t> state_;
    std::uint64_t strays_ = 0;
};

/** Every µop that enters the pipe leaves it once: through retirement or
 *  a squash. Figure 2's NO-FETCH oracle drops a predicated-FALSE µop
 *  before it enters, so such a µop emits no probe at all. */
TEST(ProbeApi, EveryFetchProbeIsClosedOnce)
{
    CompiledWorkload w = compileWorkload("gzip");

    SimParams select;
    select.predMech = PredMechanism::SelectUop;
    SimParams noFetch;
    noFetch.oracle.noFetch = true;
    SimParams selectNoFetch = select;
    selectNoFetch.oracle.noFetch = true;
    SimParams merge;
    merge.dynPred = DynPredMode::MergePoint;
    const std::pair<const char *, SimParams> machines[] = {
        {"default", SimParams{}}, {"select-uop", select},
        {"no-fetch", noFetch},    {"select-uop+no-fetch", selectNoFetch},
        {"merge-point", merge},
    };

    for (BinaryVariant v :
         {BinaryVariant::BaseMax, BinaryVariant::WishJumpJoinLoop}) {
        const Program prog = programFor(w, v, InputSet::A);
        for (const auto &[name, params] : machines) {
            FetchClosure sink;
            RunOutcome r = captureRun(prog, params, {&sink});
            ASSERT_TRUE(r.result.halted) << name;
            EXPECT_EQ(sink.unclosed(), 0u) << variantName(v) << " " << name;
            EXPECT_EQ(sink.strays(), 0u) << variantName(v) << " " << name;
        }
    }
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
        if (!plain.stats.count(kv.first)) {
            EXPECT_EQ(kv.first.rfind("attrib.", 0), 0u) << kv.first;
        }
}

} // namespace
} // namespace wisc
