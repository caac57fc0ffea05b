/**
 * @file
 * Tests for the parallel experiment harness: pool mechanics (coverage,
 * exception propagation, WISC_JOBS sizing) and the core regression —
 * a multi-threaded runNormalizedExperiment() must produce results
 * bit-identical to the serial path.
 *
 * This suite is built as its own binary (wisc_parallel_tests) and
 * carries the `tsan` ctest label: configure with -DWISC_SANITIZE=thread
 * and run `ctest -L tsan` to check the concurrent path under
 * ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/log.hh"
#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"

namespace wisc {
namespace {

TEST(ParallelRunnerTest, ForEachCoversEveryIndexExactlyOnce)
{
    ParallelRunner pool(4);
    EXPECT_EQ(pool.jobs(), 4u);

    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<unsigned>> hits(kN);
    pool.forEach(kN, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelRunnerTest, InlineModeRunsOnCallerThread)
{
    ParallelRunner pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::vector<std::size_t> order;
    pool.forEach(5, [&](std::size_t i) { order.push_back(i); });
    // Single-job mode is the exact serial path: in order, same thread.
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunnerTest, PropagatesTaskExceptions)
{
    for (unsigned jobs : {1u, 4u}) {
        ParallelRunner pool(jobs);
        std::atomic<unsigned> ran{0};
        EXPECT_THROW(
            pool.forEach(16,
                         [&](std::size_t i) {
                             ++ran;
                             if (i == 7)
                                 throw std::runtime_error("boom");
                         }),
            std::runtime_error);
        // All tasks still executed; the failure was not lost and no
        // task was abandoned mid-queue.
        EXPECT_EQ(ran.load(), 16u);
    }
}

TEST(ParallelRunnerTest, SubmitReturnsWaitableFuture)
{
    ParallelRunner pool(2);
    std::atomic<bool> done{false};
    auto fut = pool.submit([&] { done = true; });
    fut.get();
    EXPECT_TRUE(done.load());
}

TEST(ParallelRunnerTest, WiscJobsEnvOverridesDefault)
{
    ASSERT_EQ(setenv("WISC_JOBS", "3", 1), 0);
    EXPECT_EQ(ParallelRunner::defaultJobs(), 3u);
    EXPECT_EQ(ParallelRunner(0).jobs(), 3u);

    // Invalid values fall back to hardware concurrency.
    ASSERT_EQ(setenv("WISC_JOBS", "zany", 1), 0);
    EXPECT_GE(ParallelRunner::defaultJobs(), 1u);
    ASSERT_EQ(unsetenv("WISC_JOBS"), 0);
}

/** The tentpole regression: the parallel sweep must be bit-identical
 *  to the serial sweep, raw outcomes included. */
TEST(ParallelExperimentTest, MatchesSerialPathExactly)
{
    SimParams perfConf;
    perfConf.oracle.perfectConfidence = true;
    const std::vector<SeriesSpec> series = {
        {"wish-jjl", BinaryVariant::WishJumpJoinLoop, SimParams{}},
        {"wish-jjl(perf)", BinaryVariant::WishJumpJoinLoop, perfConf},
    };
    const std::vector<std::string> benches = {"crafty", "mcf"};

    NormalizedResults serial = runNormalizedExperiment(
        series, InputSet::A, SimParams{}, benches, /*jobs=*/1);
    NormalizedResults parallel = runNormalizedExperiment(
        series, InputSet::A, SimParams{}, benches, /*jobs=*/4);

    ASSERT_EQ(serial.benchmarks, parallel.benchmarks);
    ASSERT_EQ(serial.relTime.size(), parallel.relTime.size());
    for (std::size_t b = 0; b < serial.relTime.size(); ++b)
        for (std::size_t s = 0; s < serial.relTime[b].size(); ++s)
            EXPECT_EQ(serial.relTime[b][s], parallel.relTime[b][s])
                << benches[b] << "/" << series[s].label;
    for (std::size_t s = 0; s < series.size(); ++s) {
        EXPECT_EQ(serial.avg[s], parallel.avg[s]);
        EXPECT_EQ(serial.avgNoMcf[s], parallel.avgNoMcf[s]);
    }

    // Raw run data must match too: every counter of every cell.
    ASSERT_EQ(serial.baseline.size(), parallel.baseline.size());
    for (std::size_t b = 0; b < serial.baseline.size(); ++b) {
        EXPECT_EQ(serial.baseline[b].result.cycles,
                  parallel.baseline[b].result.cycles);
        EXPECT_EQ(serial.baseline[b].stats, parallel.baseline[b].stats);
        for (std::size_t s = 0; s < series.size(); ++s)
            EXPECT_EQ(serial.outcomes[b][s].stats,
                      parallel.outcomes[b][s].stats);
    }
}

/** Concurrent compilation + simulation under an oversubscribed pool —
 *  primarily a ThreadSanitizer target (ctest -L tsan). */
TEST(ParallelExperimentTest, OversubscribedPoolIsRaceFree)
{
    ParallelRunner pool(8);
    std::atomic<std::uint64_t> totalCycles{0};
    pool.forEach(8, [&](std::size_t i) {
        CompiledWorkload w = compileWorkload(i % 2 ? "gap" : "crafty");
        RunOutcome r = run(
            programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A));
        EXPECT_TRUE(r.result.halted);
        totalCycles += r.result.cycles;
    });
    EXPECT_GT(totalCycles.load(), 0u);
}

} // namespace
} // namespace wisc
