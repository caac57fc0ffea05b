/**
 * @file
 * Tests for the experiment harness: the runner captures statistics, the
 * normalized-experiment scaffolding computes AVG/AVGnomcf the way the
 * paper does (§2.2 footnote 2), results are reproducible, and the bench
 * command line rejects flags it does not implement.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/runner.hh"

namespace wisc {
namespace {

TEST(RunnerTest, CapturesStatsSnapshot)
{
    CompiledWorkload w = compileWorkload("crafty");
    RunOutcome r = run(RunRequest{w, BinaryVariant::Normal, InputSet::A});
    EXPECT_TRUE(r.result.halted);
    EXPECT_GT(r.stat("core.cycles"), 0u);
    EXPECT_GT(r.stat("core.retired_uops"), 0u);
    EXPECT_EQ(r.stat("core.cycles"), r.result.cycles);
    EXPECT_GT(r.mispredictsPer1K(), 0.0);
}

TEST(RunnerTest, CapturesHistogramSnapshot)
{
    CompiledWorkload w = compileWorkload("crafty");
    RunOutcome r = run(RunRequest{w, BinaryVariant::Normal, InputSet::A});
    // The core always registers these histograms; losing them in
    // capture() was a real stat-export bug.
    ASSERT_TRUE(r.hists.count("core.fetch_width"));
    ASSERT_TRUE(r.hists.count("core.flush_squash"));

    const HistogramSnapshot &h = r.hists.at("core.fetch_width");
    EXPECT_GT(h.count, 0u);
    std::uint64_t sum = 0;
    for (std::uint64_t b : h.buckets)
        sum += b;
    EXPECT_EQ(sum, h.count);
    // One sample per fetching cycle, so bounded by total cycles.
    EXPECT_LE(h.count, r.result.cycles);

    const HistogramSnapshot &f = r.hists.at("core.flush_squash");
    EXPECT_EQ(f.count, r.require("core.flushes"));
}

TEST(RunnerTest, RequirePanicsOnUnknownStat)
{
    CompiledWorkload w = compileWorkload("crafty");
    RunOutcome r = run(RunRequest{w, BinaryVariant::Normal, InputSet::A});
    EXPECT_EQ(r.require("core.cycles"), r.result.cycles);
    EXPECT_THROW(r.require("core.cycels"), FatalError);
    // stat() stays tolerant for registration-on-first-event names.
    EXPECT_EQ(r.stat("wish.never.registered"), 0u);
}

TEST(RunnerTest, RunsAreReproducible)
{
    CompiledWorkload w = compileWorkload("crafty");
    RunOutcome a = run(
        RunRequest{w, BinaryVariant::WishJumpJoinLoop, InputSet::A});
    RunOutcome b = run(
        RunRequest{w, BinaryVariant::WishJumpJoinLoop, InputSet::A});
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.stat("core.flushes"), b.stat("core.flushes"));
}

TEST(BenchCliDeathTest, ObservationFlagsAreUsageErrors)
{
    // No bench program implements --cpi-stack/--branch-profile
    // (wisc-run does), and BenchCli reads no environment for a
    // --no-cache to override, so each must fail as a usage error
    // rather than be accepted and silently dropped.
    for (std::string flag : {"--cpi-stack", "--branch-profile",
                             "--no-cache"}) {
        std::string name = "bench";
        char *argv[] = {name.data(), flag.data(), nullptr};
        EXPECT_EXIT(BenchCli(2, argv, name), ::testing::ExitedWithCode(2),
                    "unknown option '" + flag + "'");
    }
}

TEST(ExperimentTest, NormalizedAveragesExcludeMcf)
{
    std::vector<SeriesSpec> series = {
        {"normal-again", BinaryVariant::Normal, SimParams{}},
    };
    // Two benchmarks, one of them mcf: AVG covers both, AVGnomcf one.
    NormalizedResults r = runNormalizedExperiment(
        series, InputSet::A, SimParams{}, {"crafty", "mcf"});
    ASSERT_EQ(r.relTime.size(), 2u);
    // The normal binary normalized to itself is exactly 1.
    EXPECT_DOUBLE_EQ(r.relTime[0][0], 1.0);
    EXPECT_DOUBLE_EQ(r.relTime[1][0], 1.0);
    EXPECT_DOUBLE_EQ(r.avg[0], 1.0);
    EXPECT_DOUBLE_EQ(r.avgNoMcf[0], 1.0);
}

TEST(ExperimentTest, PrintsPaperStyleTable)
{
    NormalizedResults r;
    r.benchmarks = {"x"};
    r.seriesLabels = {"s1", "s2"};
    r.relTime = {{0.5, 1.25}};
    r.avg = {0.5, 1.25};
    r.avgNoMcf = {0.5, 1.25};
    std::ostringstream os;
    printNormalized(os, r);
    std::string out = os.str();
    EXPECT_NE(out.find("AVG"), std::string::npos);
    EXPECT_NE(out.find("AVGnomcf"), std::string::npos);
    EXPECT_NE(out.find("0.500"), std::string::npos);
    EXPECT_NE(out.find("1.250"), std::string::npos);
}

} // namespace
} // namespace wisc
