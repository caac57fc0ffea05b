/**
 * @file
 * Machine-configuration matrix: every combination of window size,
 * pipeline depth, predication mechanism, and wish-hardware setting must
 * run the wish binary to completion with the correct architectural
 * result (the core cross-checks against the reference emulator
 * internally), and basic monotonicity must hold (a strictly weaker
 * machine is not faster).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "harness/runner.hh"

namespace wisc {
namespace {

using Config = std::tuple<unsigned /*rob*/, unsigned /*stages*/,
                          PredMechanism, bool /*wish*/>;

class ConfigMatrix : public ::testing::TestWithParam<Config>
{
  protected:
    static const CompiledWorkload &
    workload()
    {
        static CompiledWorkload w = compileWorkload("crafty");
        return w;
    }
};

INSTANTIATE_TEST_SUITE_P(
    Machines, ConfigMatrix,
    ::testing::Combine(::testing::Values(128u, 512u),
                       ::testing::Values(10u, 30u),
                       ::testing::Values(PredMechanism::CStyle,
                                         PredMechanism::SelectUop),
                       ::testing::Bool()),
    [](const auto &info) {
        return "rob" + std::to_string(std::get<0>(info.param)) +
               "_st" + std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) == PredMechanism::CStyle
                    ? "_cstyle"
                    : "_select") +
               (std::get<3>(info.param) ? "_wish" : "_nowish");
    });

TEST_P(ConfigMatrix, WishBinaryRunsCorrectly)
{
    auto [rob, stages, mech, wishOn] = GetParam();
    SimParams p;
    p.robSize = rob;
    p.iqSize = rob / 4;
    p.lsqSize = rob / 2;
    p.pipelineStages = stages;
    p.predMech = mech;
    p.wishEnabled = wishOn;

    // checkFinalState (on by default) panics on any architectural
    // divergence from the reference emulator.
    RunOutcome r = run(
        programFor(workload(), BinaryVariant::WishJumpJoinLoop, InputSet::A),
        p);
    ASSERT_TRUE(r.result.halted);
    EXPECT_GT(r.result.ipc(), 0.05);
    EXPECT_LT(r.result.ipc(), 8.0);
}

TEST(ConfigMonotonicity, SmallerWindowIsNotFaster)
{
    CompiledWorkload w = compileWorkload("parser");
    SimParams big;
    SimParams small = big;
    small.robSize = 64;
    small.iqSize = 16;
    small.lsqSize = 32;
    RunOutcome rb =
        run(programFor(w, BinaryVariant::Normal, InputSet::A), big);
    RunOutcome rs =
        run(programFor(w, BinaryVariant::Normal, InputSet::A), small);
    EXPECT_GE(rs.result.cycles, rb.result.cycles);
}

TEST(ConfigMonotonicity, DeeperPipelineIsNotFaster)
{
    CompiledWorkload w = compileWorkload("bzip2");
    SimParams shallow;
    shallow.pipelineStages = 10;
    SimParams deep;
    deep.pipelineStages = 30;
    RunOutcome rs =
        run(programFor(w, BinaryVariant::Normal, InputSet::A), shallow);
    RunOutcome rd =
        run(programFor(w, BinaryVariant::Normal, InputSet::A), deep);
    EXPECT_GE(rd.result.cycles, rs.result.cycles);
}

TEST(ConfigMonotonicity, FewerMshrsAreNotFaster)
{
    CompiledWorkload w = compileWorkload("mcf");
    SimParams many;
    SimParams few = many;
    few.maxOutstandingMisses = 1;
    RunOutcome rm =
        run(programFor(w, BinaryVariant::Normal, InputSet::A), many);
    RunOutcome rf =
        run(programFor(w, BinaryVariant::Normal, InputSet::A), few);
    EXPECT_GE(rf.result.cycles, rm.result.cycles);
}

TEST(ConfigOracle, WishBinariesRunUnderEveryOracle)
{
    CompiledWorkload w = compileWorkload("gzip");
    for (int knob = 0; knob < 4; ++knob) {
        SimParams p;
        if (knob == 0)
            p.oracle.perfectCBP = true;
        if (knob == 1)
            p.oracle.perfectConfidence = true;
        if (knob == 2)
            p.oracle.noDepend = true;
        if (knob == 3) {
            p.oracle.noDepend = true;
            p.oracle.noFetch = true;
        }
        RunOutcome r = run(
            programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A), p);
        EXPECT_TRUE(r.result.halted) << "oracle knob " << knob;
        if (knob == 0)
            EXPECT_EQ(r.stat("core.flushes"), 0u)
                << "perfect CBP never flushes";
    }
}

} // namespace
} // namespace wisc
