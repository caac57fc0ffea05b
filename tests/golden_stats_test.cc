/**
 * @file
 * Golden-stat regression test: replays the fixed goldenRuns() matrix
 * (one run per binary type plus select-µop and small-window machines)
 * and compares the FULL StatSet — every counter and every histogram
 * bucket — against values captured from the seed (poll-scheduler) core.
 * This is the proof that the event-driven wakeup scheduler and the
 * allocation-free DynInst layout are cycle-identical, not just
 * approximately right.
 *
 * If a timing-model change is *intentional*, regenerate the baseline:
 *   build/tests/golden_stats_gen > tests/golden_stats_data.inc
 */

#include <gtest/gtest.h>

#include <map>

#include "golden_runs.hh"

namespace wisc {
namespace {

struct GoldenCounter
{
    const char *name;
    unsigned long long value;
};

struct GoldenHist
{
    const char *name;
    unsigned long long count;
    std::vector<unsigned long long> buckets;
};

struct GoldenRun
{
    const char *label;
    unsigned long long result[4]; ///< cycles, uops, resultReg, memFp
    std::vector<GoldenCounter> counters;
    std::vector<GoldenHist> hists;
};

#include "golden_stats_data.inc"

TEST(GoldenStats, MatrixMatchesGoldenRunList)
{
    // The data file must cover exactly the configured matrix.
    auto runs = goldenRuns();
    ASSERT_EQ(kGolden.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].label, kGolden[i].label);
}

class GoldenStats : public ::testing::TestWithParam<std::size_t>
{
};

INSTANTIATE_TEST_SUITE_P(
    Runs, GoldenStats, ::testing::Range<std::size_t>(0, kGolden.size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string n = kGolden[info.param].label;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST_P(GoldenStats, FullStatSetBitIdentical)
{
    const GoldenRunSpec spec = goldenRuns()[GetParam()];
    const GoldenRun &g = kGolden[GetParam()];

    static std::map<std::string, CompiledWorkload> compiled;
    auto it = compiled.find(spec.workload);
    if (it == compiled.end())
        it = compiled.emplace(spec.workload,
                              compileWorkload(spec.workload)).first;
    RunOutcome o = run(
        programFor(it->second, spec.variant, spec.input), spec.params);

    EXPECT_EQ(o.result.cycles, g.result[0]);
    EXPECT_EQ(o.result.retiredUops, g.result[1]);
    EXPECT_EQ(static_cast<unsigned long long>(o.result.resultReg),
              g.result[2]);
    EXPECT_EQ(o.result.memFingerprint, g.result[3]);

    // Counters: exact same set of names, exact same values.
    ASSERT_EQ(o.stats.size(), g.counters.size())
        << "counter set changed (registration is part of the contract)";
    std::size_t i = 0;
    for (const auto &[name, value] : o.stats) {
        EXPECT_EQ(name, g.counters[i].name);
        EXPECT_EQ(value, g.counters[i].value) << name;
        ++i;
    }

    // Histograms: same set, same count, same buckets.
    ASSERT_EQ(o.hists.size(), g.hists.size());
    i = 0;
    for (const auto &[name, h] : o.hists) {
        EXPECT_EQ(name, g.hists[i].name);
        EXPECT_EQ(h.count(), g.hists[i].count) << name;
        ASSERT_EQ(h.buckets().size(), g.hists[i].buckets.size()) << name;
        for (std::size_t b = 0; b < h.buckets().size(); ++b)
            EXPECT_EQ(h.buckets()[b], g.hists[i].buckets[b])
                << name << " bucket " << b;
        ++i;
    }
}

} // namespace
} // namespace wisc
