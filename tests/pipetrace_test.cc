/**
 * @file
 * Tests for the pipeline tracer: lifecycle ordering invariants on
 * retired µops, squash marking of wrong-path µops, first-N capture
 * policy, and the text rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "isa/assembler.hh"
#include "uarch/core.hh"
#include "uarch/pipetrace.hh"

namespace wisc {
namespace {

TEST(PipeTraceTest, LifecycleOrderingOnStraightLine)
{
    Program p = assemble(R"(
        li r5, 1
        addi r5, r5, 2
        mul r4, r5, r5
        halt
    )");
    SimParams params;
    StatSet stats;
    PipeTracer tracer(64);
    SimResult r = simulate(p, params, stats, {&tracer});
    ASSERT_TRUE(r.halted);

    ASSERT_EQ(tracer.records().size(), 4u);
    for (const PipeRecord &rec : tracer.records()) {
        EXPECT_FALSE(rec.squashed) << rec.disasm;
        EXPECT_LE(rec.fetch, rec.rename) << rec.disasm;
        EXPECT_LE(rec.rename, rec.issue) << rec.disasm;
        EXPECT_LE(rec.issue, rec.complete) << rec.disasm;
        EXPECT_LE(rec.complete, rec.retire) << rec.disasm;
        EXPECT_NE(rec.retire, kNoCycle) << rec.disasm;
    }
    // Front-end depth separates fetch from rename.
    EXPECT_GE(tracer.records()[0].rename - tracer.records()[0].fetch,
              params.frontEndDelay());
}

TEST(PipeTraceTest, WrongPathMarkedSquashed)
{
    // A hard-to-predict branch guarantees wrong-path fetches.
    Program p = assemble(R"(
        li r5, 0
        li r6, 31337
        loop:
        muli r6, r6, 1103515245
        addi r6, r6, 12345
        shri r7, r6, 16
        andi r7, r7, 1
        cmpi.eq p1, p2, r7, 1
        br p1, skip
        addi r4, r4, 1
        skip:
        addi r5, r5, 1
        cmpi.lt p3, p0, r5, 200
        br p3, loop
        halt
    )");
    SimParams params;
    StatSet stats;
    PipeTracer tracer(2048);
    SimResult r = simulate(p, params, stats, {&tracer});
    ASSERT_TRUE(r.halted);

    unsigned squashed = 0, retired = 0;
    for (const PipeRecord &rec : tracer.records()) {
        if (rec.squashed) {
            ++squashed;
            EXPECT_EQ(rec.retire, kNoCycle)
                << "squashed µops never retire";
        }
        if (rec.retire != kNoCycle)
            ++retired;
    }
    EXPECT_GT(squashed, 50u) << "mispredictions must squash µops";
    EXPECT_GT(retired, 150u);
}

TEST(PipeTraceTest, PredicatedNopsFlagged)
{
    Program p = assemble(R"(
        pset p1, 0
        (p1) addi r4, r4, 1
        halt
    )");
    SimParams params;
    StatSet stats;
    PipeTracer tracer(8);
    simulate(p, params, stats, {&tracer});

    ASSERT_GE(tracer.records().size(), 2u);
    EXPECT_TRUE(tracer.records()[1].predFalse);
    EXPECT_FALSE(tracer.records()[0].predFalse);
}

TEST(PipeTraceTest, CapacityKeepsFirstN)
{
    Program p = assemble(R"(
        li r5, 0
        loop:
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 100
        br p1, loop
        halt
    )");
    SimParams params;
    StatSet stats;
    PipeTracer tracer(10);
    simulate(p, params, stats, {&tracer});

    ASSERT_EQ(tracer.records().size(), 10u);
    EXPECT_EQ(tracer.records()[0].pc, 0u) << "run start captured";
}

/** Cycle 0 is a real cycle: the first µop fetches there, and the
 *  renderer must draw it. The old encoding used 0 as "never reached",
 *  which silently dropped every stage event at cycle 0 (now kNoCycle
 *  is the sentinel). */
TEST(PipeTraceTest, CycleZeroEventsAreRecordedAndRendered)
{
    Program p = assemble(R"(
        li r4, 7
        halt
    )");
    SimParams params;
    StatSet stats;
    PipeTracer tracer(8);
    simulate(p, params, stats, {&tracer});

    ASSERT_GE(tracer.records().size(), 1u);
    EXPECT_EQ(tracer.records()[0].fetch, 0u)
        << "the first µop fetches at cycle 0";

    std::ostringstream os;
    tracer.render(os, 0, 4);
    const std::string out = os.str();
    // First data row (after the header line): uid(6) ' ' pc(5) ' '
    // then the lane, whose column 0 is cycle 0 — it must show the 'F'.
    const std::size_t row = out.find('\n') + 1;
    ASSERT_LT(row + 13, out.size());
    EXPECT_EQ(out[row + 13], 'F');
}

TEST(PipeTraceTest, RenderContainsStageLetters)
{
    Program p = assemble(R"(
        li r4, 7
        halt
    )");
    SimParams params;
    StatSet stats;
    PipeTracer tracer(8);
    simulate(p, params, stats, {&tracer});

    std::ostringstream os;
    tracer.render(os, 0, 8);
    std::string out = os.str();
    EXPECT_NE(out.find('F'), std::string::npos);
    EXPECT_NE(out.find('W'), std::string::npos);
    EXPECT_NE(out.find("li r4, 7"), std::string::npos);
}

} // namespace
} // namespace wisc
