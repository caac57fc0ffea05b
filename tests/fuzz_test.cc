/**
 * @file
 * Tests for the differential fuzzing subsystem: generator determinism,
 * IR text round-trip fidelity, shrinker behavior, state diffing, the
 * non-halting hard-error paths, and a small end-to-end campaign.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "arch/state_diff.hh"
#include "common/log.hh"
#include "compiler/driver.hh"
#include "compiler/ir_text.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/generator.hh"
#include "fuzz/shrink.hh"

namespace wisc {
namespace {

/** An IR function that never halts: entry spins on itself forever.
 *  (A halt block exists — lowering requires one — but is unreachable.) */
IrFunction
infiniteLoopFn()
{
    IrFunction fn;
    BlockId spin = fn.newBlock("spin");
    fn.newBlock("unreachable_halt"); // default terminator is Halt
    fn.block(spin).term.kind = TermKind::Jump;
    fn.block(spin).term.taken = spin;
    fn.setEntry(spin);
    return fn;
}

/** First seed in [1, limit] whose generated program satisfies pred. */
template <typename Pred>
std::uint64_t
findSeed(const Pred &pred, std::uint64_t limit = 100)
{
    for (std::uint64_t seed = 1; seed <= limit; ++seed)
        if (pred(generateProgram(seed)))
            return seed;
    return 0;
}

// ---------------------------------------------------------------- generator

TEST(FuzzGenerator, SameSeedSameProgram)
{
    for (std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
        IrFunction a = generateProgram(seed);
        IrFunction b = generateProgram(seed);
        EXPECT_EQ(a.lower().fingerprint(), b.lower().fingerprint())
            << "seed " << seed;
        EXPECT_EQ(irToText(a), irToText(b)) << "seed " << seed;
    }
}

TEST(FuzzGenerator, DifferentSeedsDifferentPrograms)
{
    EXPECT_NE(generateProgram(1).lower().fingerprint(),
              generateProgram(2).lower().fingerprint());
}

TEST(FuzzGenerator, EmitsStructureAcrossSeeds)
{
    bool sawBranch = false, sawBackEdge = false, sawLoad = false,
         sawStore = false;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        IrFunction fn = generateProgram(seed);
        EXPECT_FALSE(fn.data().empty());
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            const IrBlock &blk = fn.block(b);
            if (blk.dead)
                continue;
            if (blk.term.kind == TermKind::CondBr) {
                sawBranch = true;
                if (blk.term.taken <= b || blk.term.next <= b)
                    sawBackEdge = true;
            }
            for (const Instruction &i : blk.insts) {
                if (i.op == Opcode::Ld || i.op == Opcode::Ld1)
                    sawLoad = true;
                if (i.op == Opcode::St || i.op == Opcode::St1)
                    sawStore = true;
            }
        }
    }
    EXPECT_TRUE(sawBranch);
    EXPECT_TRUE(sawBackEdge);
    EXPECT_TRUE(sawLoad);
    EXPECT_TRUE(sawStore);
}

TEST(FuzzGenerator, GeneratedProgramsHalt)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Program p = generateProgram(seed).lower();
        Emulator emu;
        EmuResult r = emu.run(p, nullptr, 2'000'000);
        EXPECT_TRUE(r.halted) << "seed " << seed;
    }
}

// ----------------------------------------------------------------- ir_text

TEST(IrText, RoundTripLowersIdentically)
{
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        IrFunction fn = generateProgram(seed);
        IrFunction re = irFromText(irToText(fn));
        EXPECT_EQ(fn.lower().fingerprint(), re.lower().fingerprint())
            << "seed " << seed;
        // Stable: a second round trip produces the same text.
        EXPECT_EQ(irToText(fn), irToText(re)) << "seed " << seed;
    }
}

TEST(IrText, RoundTripCompilesIdentically)
{
    // Block ids, entry, and maxUserPred survive, so every *variant*
    // compiles bit-identically from the reparsed function.
    IrFunction fn = generateProgram(3);
    IrFunction re = irFromText(irToText(fn));
    auto a = compileAllVariants(fn);
    auto b = compileAllVariants(re);
    ASSERT_EQ(a.size(), b.size());
    for (const auto &kv : a)
        EXPECT_EQ(kv.second.program.fingerprint(),
                  b.at(kv.first).program.fingerprint())
            << variantName(kv.first);
}

TEST(IrText, ParserRejectsGarbage)
{
    EXPECT_THROW(irFromText("not an ir file"), FatalError);
    EXPECT_THROW(irFromText("wisc-ir 99\n"), FatalError);
    EXPECT_THROW(irFromText("wisc-ir 1\nblock 0\n  i bogusop\n"),
                 FatalError);
}

TEST(IrText, CommentsAndBlankLinesIgnored)
{
    IrFunction fn = generateProgram(5);
    std::string text = "; reproducer header\n# another comment\n\n" +
                       irToText(fn);
    IrFunction re = irFromText(text);
    EXPECT_EQ(fn.lower().fingerprint(), re.lower().fingerprint());
}

// ----------------------------------------------------------------- shrinker

TEST(Shrink, PreservesFailurePredicate)
{
    auto hasStore = [](const IrFunction &f) {
        for (const IrBlock &b : f.blocks()) {
            if (b.dead)
                continue;
            for (const Instruction &i : b.insts)
                if (i.op == Opcode::St || i.op == Opcode::St1)
                    return true;
        }
        return false;
    };
    std::uint64_t seed = findSeed(hasStore);
    ASSERT_NE(seed, 0u) << "no seed in range produces a store";
    IrFunction fn = generateProgram(seed);

    ShrinkStats st;
    IrFunction min = shrinkIr(fn, hasStore, &st);
    EXPECT_TRUE(hasStore(min));
    EXPECT_GT(st.accepted, 0u);

    auto instCount = [](const IrFunction &f) {
        std::size_t n = 0;
        for (const IrBlock &b : f.blocks())
            if (!b.dead)
                n += b.insts.size();
        return n;
    };
    EXPECT_LT(instCount(min), instCount(fn));
    // A predicate this loose shrinks to (nearly) just the witness.
    EXPECT_LE(instCount(min), 3u);
}

TEST(Shrink, DeterministicForSameInput)
{
    auto pred = [](const IrFunction &f) {
        for (const IrBlock &b : f.blocks())
            if (!b.dead)
                for (const Instruction &i : b.insts)
                    if (i.op == Opcode::Mul || i.op == Opcode::MulI)
                        return true;
        return false;
    };
    std::uint64_t seed = findSeed(pred);
    ASSERT_NE(seed, 0u) << "no seed in range produces a multiply";
    IrFunction fn = generateProgram(seed);
    IrFunction a = shrinkIr(fn, pred);
    IrFunction b = shrinkIr(fn, pred);
    EXPECT_EQ(irToText(a), irToText(b));
}

TEST(Shrink, RejectsNonFailingInput)
{
    IrFunction fn = generateProgram(1);
    EXPECT_THROW(
        shrinkIr(fn, [](const IrFunction &) { return false; }),
        FatalError);
}

// --------------------------------------------------------------- state diff

TEST(StateDiff, ReportsFirstDifferingRegister)
{
    ArchState a, b;
    EXPECT_FALSE(firstStateDiff(a, b));

    b.writeReg(7, 41);
    a.writeReg(7, 42);
    b.writeReg(9, 1); // later register also differs; 7 wins
    StateDiff d = firstStateDiff(a, b);
    ASSERT_TRUE(d);
    EXPECT_EQ(d.kind, StateDiff::Kind::IntReg);
    EXPECT_EQ(d.reg, 7u);
    EXPECT_EQ(d.expected, 42u);
    EXPECT_EQ(d.got, 41u);
    EXPECT_NE(d.describe().find("r7"), std::string::npos);
}

TEST(StateDiff, ReportsDifferingMemoryWord)
{
    ArchState a, b;
    a.mem().writeWord(0x20010, 0xdead);
    b.mem().writeWord(0x20010, 0xbeef);
    StateDiff d = firstStateDiff(a, b);
    ASSERT_TRUE(d);
    EXPECT_EQ(d.kind, StateDiff::Kind::Memory);
    EXPECT_EQ(d.addr, 0x20010u);
    EXPECT_EQ(d.expected, 0xdeadu);
    EXPECT_EQ(d.got, 0xbeefu);
}

TEST(StateDiff, SeesWriteOnOneSideOnly)
{
    // The page exists only in 'got'; the diff must still find it.
    ArchState a, b;
    b.mem().writeWord(0x90000, 5);
    StateDiff d = firstStateDiff(a, b);
    ASSERT_TRUE(d);
    EXPECT_EQ(d.kind, StateDiff::Kind::Memory);
    EXPECT_EQ(d.addr, 0x90000u);
    EXPECT_EQ(d.expected, 0u);
    EXPECT_EQ(d.got, 5u);
}

// ------------------------------------------------------- non-halt hard paths

TEST(NonHalt, EmulatorReportsStepLimit)
{
    Program p = infiniteLoopFn().lower();
    Emulator emu;
    EmuResult r = emu.run(p, nullptr, 10'000);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.dynInsts, 10'000u);
}

TEST(NonHalt, FuzzCheckFlagsNonHaltingProgram)
{
    FuzzOptions opts;
    opts.runCore = false;
    opts.emuMaxSteps = 10'000;
    CheckOutcome c = checkProgram(infiniteLoopFn(), opts);
    EXPECT_FALSE(c.ok);
    EXPECT_EQ(c.kind, "nonhalt");
}

TEST(NonHalt, VerifyVariantEquivalenceRejectsMissingNormal)
{
    IrFunction fn = generateProgram(2);
    auto variants = compileAllVariants(fn);
    variants.erase(BinaryVariant::Normal);
    EXPECT_THROW(verifyVariantEquivalence(variants), FatalError);
}

TEST(NonHalt, VerifyVariantEquivalenceNamesDivergingWord)
{
    IrFunction fn = generateProgram(2);
    auto variants = compileAllVariants(fn);
    // Sabotage one variant: a kernel computing a different checksum.
    IrFunction other = generateProgram(4);
    variants[BinaryVariant::BaseMax] =
        compileVariant(other, BinaryVariant::Normal, BranchStats{});
    try {
        verifyVariantEquivalence(variants);
        FAIL() << "divergence not detected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("diverged"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------------- end to end

TEST(FuzzCampaign, SmokeMatrixRunsClean)
{
    FuzzOptions opts;
    opts.seed = 7;
    opts.runs = 15;
    CheckOutcome probe; // silence unused warnings on some compilers
    (void)probe;
    FuzzReport rep = fuzzCampaign(opts);
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.programs, 15u);
    EXPECT_EQ(rep.variantsChecked, 15u * 5u - 5u * rep.compileRejects);
    EXPECT_GT(rep.coreRuns, 0u);
}

TEST(FuzzCampaign, ReproducerFormatReplays)
{
    IrFunction fn = generateProgram(9);
    FuzzFailure f;
    f.seed = 9;
    f.kind = "synthetic";
    f.detail = "multi\nline detail";
    std::string text = formatReproducer(f, fn);
    EXPECT_NE(text.find("; seed=9"), std::string::npos);
    EXPECT_NE(text.find("kind=synthetic"), std::string::npos);

    FuzzOptions opts;
    opts.runCore = false;
    CheckOutcome c = replayReproducer(text, opts);
    EXPECT_TRUE(c.ok); // this program has no bug: replay comes back clean
    EXPECT_EQ(c.variantsChecked, 5u);
}

TEST(FuzzCampaign, FailurePathShrinksAndWritesReproducer)
{
    // Drive the full failure machinery without needing a compiler bug:
    // a 10-step emulator budget flags every real program as non-halting,
    // and that failure survives shrinking (smaller programs still
    // exceed 10 steps until almost nothing is left).
    const std::string dir =
        ::testing::TempDir() + "/wisc_fuzz_failure_path";
    FuzzOptions opts;
    opts.seed = 21;
    opts.runs = 2;
    opts.runCore = false;
    opts.emuMaxSteps = 10;
    opts.reproDir = dir;

    FuzzReport rep = fuzzCampaign(opts);
    ASSERT_FALSE(rep.ok());
    for (const FuzzFailure &f : rep.failures) {
        EXPECT_EQ(f.kind, "nonhalt");
        EXPECT_FALSE(f.minimizedIr.empty());
        ASSERT_FALSE(f.reproPath.empty());

        std::ifstream in(f.reproPath);
        ASSERT_TRUE(in) << f.reproPath;
        std::ostringstream body;
        body << in.rdbuf();

        // Still fails under the budget that produced it...
        CheckOutcome again = replayReproducer(body.str(), opts);
        EXPECT_FALSE(again.ok);
        EXPECT_EQ(again.kind, "nonhalt");
        // ...and checks out clean under a sane budget (the "bug" is
        // the budget, not the program).
        FuzzOptions sane;
        sane.runCore = false;
        EXPECT_TRUE(replayReproducer(body.str(), sane).ok);
    }
}

TEST(FuzzCampaign, AttributionInvariantChecked)
{
    // The smoke matrix carries collectAttribution points; a clean pass
    // means sum(attrib.*) == cycles held on every one of them.
    FuzzOptions opts;
    opts.seed = 3;
    opts.runs = 3;
    FuzzReport rep = fuzzCampaign(opts);
    EXPECT_TRUE(rep.ok());
    EXPECT_GE(rep.coreRuns,
              rep.programs * 5u * 3u); // 3 matrix points + poll twins
}

} // namespace
} // namespace wisc
