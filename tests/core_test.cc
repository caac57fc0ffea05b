/**
 * @file
 * Integration tests for the out-of-order core: functional correctness
 * against the reference emulator, misprediction-penalty calibration,
 * predication-overhead timing, oracle knobs, and the wish-branch
 * recovery behaviors (no-flush low-confidence jumps, wish-loop
 * early/late/no-exit classification).
 */

#include <gtest/gtest.h>

#include <string>

#include "arch/emulator.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "compiler/builder.hh"
#include "compiler/driver.hh"
#include "isa/assembler.hh"
#include "uarch/core.hh"

namespace wisc {
namespace {

SimResult
runSim(const Program &p, const SimParams &params, StatSet &stats)
{
    return simulate(p, params, stats);
}

SimResult
runSim(const Program &p, const SimParams &params = SimParams{})
{
    StatSet stats;
    return runSim(p, params, stats);
}

TEST(CoreTest, StraightLineProgram)
{
    Program p = assemble(R"(
        li r5, 6
        li r6, 7
        mul r4, r5, r6
        halt
    )");
    SimResult r = runSim(p);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, 42);
    EXPECT_EQ(r.retiredUops, 4u);
    // Front end depth dominates a tiny program.
    EXPECT_GT(r.cycles, 20u);
    EXPECT_LT(r.cycles, 400u);
}

/** A machine that can never retire a µop is a configuration error at
 *  construction, not a spin until maxCycles. */
TEST(CoreTest, UnrunnableMachineFailsAtConstruction)
{
    struct Case
    {
        const char *field; ///< what the error must name
        void (*set)(SimParams &);
    };
    const Case cases[] = {
        {"robSize", [](SimParams &p) { p.robSize = 0; }},
        {"fetchWidth", [](SimParams &p) { p.fetchWidth = 0; }},
        {"decodeWidth", [](SimParams &p) { p.decodeWidth = 0; }},
        {"issueWidth", [](SimParams &p) { p.issueWidth = 0; }},
        {"retireWidth", [](SimParams &p) { p.retireWidth = 0; }},
        {"iqSize", [](SimParams &p) { p.iqSize = 0; }},
        {"memPortsPerCycle", [](SimParams &p) { p.memPortsPerCycle = 0; }},
        {"maxOutstandingMisses",
         [](SimParams &p) { p.maxOutstandingMisses = 0; }},
        {"maxCondBrPerFetch", [](SimParams &p) { p.maxCondBrPerFetch = 0; }},
        // A select-µop pair needs two ROB and two IQ entries.
        {"robSize",
         [](SimParams &p) {
             p.predMech = PredMechanism::SelectUop;
             p.robSize = 1;
         }},
        {"iqSize",
         [](SimParams &p) {
             p.predMech = PredMechanism::SelectUop;
             p.iqSize = 1;
         }},
    };
    const Program prog = assemble("halt");
    for (const Case &c : cases) {
        SimParams p;
        c.set(p);
        StatSet stats;
        try {
            Core core(p, stats, prog);
            ADD_FAILURE() << c.field << ": the machine was constructed";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(std::string("SimParams::") + c.field),
                      std::string::npos)
                << c.field << ": " << msg;
        }
    }
}

TEST(CoreTest, MatchesEmulatorOnLoops)
{
    Program p = assemble(R"(
        li r4, 0
        li r5, 1
        loop:
        add r4, r4, r5
        addi r5, r5, 1
        cmpi.le p1, p0, r5, 200
        br p1, loop
        halt
    )");
    Emulator emu;
    EmuResult ref = emu.run(p);
    SimResult r = runSim(p); // checkFinalState cross-checks internally
    EXPECT_EQ(r.resultReg, ref.resultReg);
    EXPECT_EQ(r.retiredUops, ref.dynInsts);
}

TEST(CoreTest, IpcReasonableOnIndependentWork)
{
    // A long run of independent adds should approach the 8-wide limit.
    std::string src = "li r4, 0\n";
    for (int rep = 0; rep < 50; ++rep)
        for (int r = 10; r < 18; ++r)
            src += "addi r" + std::to_string(r) + ", r" +
                   std::to_string(r) + ", 1\n";
    src += "halt\n";
    SimResult r = runSim(assemble(src));
    EXPECT_GT(r.ipc(), 3.0);
}

TEST(CoreTest, DependentChainSerializes)
{
    std::string src = "li r5, 0\n";
    for (int rep = 0; rep < 400; ++rep)
        src += "addi r5, r5, 1\n";
    src += "addi r4, r5, 0\nhalt\n";
    SimResult r = runSim(assemble(src));
    // One add per cycle at best.
    EXPECT_GT(r.cycles, 400u);
    EXPECT_EQ(r.resultReg, 400);
}

/** Cycles per iteration of a loop whose branch alternates T/N/T/N...
 *  approximates (body + misprediction penalty) once the predictor
 *  settles into always-mispredicting or always-correct behavior. */
TEST(CoreTest, MispredictionPenaltyNearThirtyCycles)
{
    // A branch on the low bit of an LFSR-ish pseudo-random value is
    // effectively unpredictable: roughly half the iterations flush.
    Program p = assemble(R"(
        li r5, 0
        li r6, 12345
        li r4, 0
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
        cmpi.lt p1, p0, r5, 2000
        br p1, loop
        halt
    )");
    StatSet stats;
    SimParams params;
    SimResult r = runSim(p, params, stats);
    ASSERT_TRUE(r.halted);

    std::uint64_t mispredicts = stats.get("core.branch_mispredicts");
    ASSERT_GT(mispredicts, 500u) << "branch should be hard to predict";

    // Cycles beyond the dataflow minimum divided by mispredictions
    // should be near the configured 30-cycle penalty.
    SimParams perfect;
    perfect.oracle.perfectCBP = true;
    StatSet pstats;
    SimResult pr = runSim(p, perfect, pstats);
    double penalty = static_cast<double>(r.cycles - pr.cycles) /
                     static_cast<double>(mispredicts);
    EXPECT_GT(penalty, 20.0);
    EXPECT_LT(penalty, 45.0);
}

TEST(CoreTest, PipelineDepthScalesPenalty)
{
    Program p = assemble(R"(
        li r5, 0
        li r6, 99991
        li r4, 0
        loop:
        muli r6, r6, 69069
        addi r6, r6, 1
        shri r7, r6, 13
        andi r7, r7, 1
        cmpi.eq p1, p2, r7, 1
        br p1, skip
        addi r4, r4, 1
        skip:
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 1500
        br p1, loop
        halt
    )");
    SimParams shallow;
    shallow.pipelineStages = 10;
    SimParams deep;
    deep.pipelineStages = 30;
    SimResult rs = runSim(p, shallow);
    SimResult rd = runSim(p, deep);
    EXPECT_LT(rs.cycles, rd.cycles);
}

TEST(CoreTest, CacheMissesCostCycles)
{
    // Walk far more memory than L1+L2 to force misses.
    Program miss = assemble(R"(
        li r5, 0
        li r6, 0x100000
        li r4, 0
        loop:
        ld r7, r6, 0
        add r4, r4, r7
        addi r6, r6, 4096
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 400
        br p1, loop
        halt
    )");
    Program hit = assemble(R"(
        li r5, 0
        li r6, 0x100000
        li r4, 0
        loop:
        ld r7, r6, 0
        add r4, r4, r7
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 400
        br p1, loop
        halt
    )");
    SimResult rm = runSim(miss);
    SimResult rh = runSim(hit);
    // 400 independent cold misses through 16 MSHRs at ~300 cycles each.
    EXPECT_GT(rm.cycles, rh.cycles + 400 / 16 * 300 / 2)
        << "misses should be bounded by MSHR-limited memory parallelism";
}

TEST(CoreTest, StoreToLoadForwarding)
{
    Program p = assemble(R"(
        li r6, 0x40000
        li r5, 0
        li r4, 0
        loop:
        st r5, r6, 0
        ld r7, r6, 0
        add r4, r4, r7
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 100
        br p1, loop
        halt
    )");
    SimResult r = runSim(p);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, 99 * 100 / 2);
}

/**
 * Build the mcf pathology: a linked-list chase where the *next pointer*
 * is selected by a data-dependent (but heavily biased, hence highly
 * predictable) condition. Branch prediction starts the next chase load
 * speculatively; predication serializes it behind the value load and
 * compare — the §5.1 "serialization of critical load instructions".
 *
 * Node layout at base + i*stride: [next_a@0, next_b@8, ... val@128] —
 * the value lives on a different cache line than the pointers, as in a
 * real mcf node where the orientation field and the arc pointers sit in
 * different structures.
 */
Program
buildChase(bool predicated, int nodes, int biasMod)
{
    const char *pred = R"(
        li r6, 0x200000
        li r4, 0
        loop:
        ld r7, r6, 128
        cmpi.gt p1, p2, r7, 0
        (p1) ld r6, r6, 0
        (p2) ld r6, r6, 8
        addi r4, r4, 1
        cmpi.ne p3, p0, r6, 0
        br p3, loop
        halt
    )";
    const char *branchy = R"(
        li r6, 0x200000
        li r4, 0
        loop:
        ld r7, r6, 128
        cmpi.gt p1, p2, r7, 0
        br p2, other
        ld r6, r6, 0
        jmp merge
        other:
        ld r6, r6, 8
        merge:
        addi r4, r4, 1
        cmpi.ne p3, p0, r6, 0
        br p3, loop
        halt
    )";
    Program p = assemble(predicated ? pred : branchy);

    // Linked list with large stride so every access misses.
    const Addr base = 0x200000;
    const Word stride = 4160;
    for (int i = 0; i < nodes; ++i) {
        Addr a = base + static_cast<Addr>(i) * stride;
        Word next = (i + 1 < nodes) ? static_cast<Word>(a + stride) : 0;
        // val > 0 except every biasMod-th node: branch ~always taken.
        Word val = (biasMod > 0 && i % biasMod == 0) ? -1 : 1;
        p.addData(a, {next, next});
        p.addData(a + 128, {val});
    }
    return p;
}

TEST(CoreTest, PredicationSerializesCriticalLoads)
{
    // The mcf effect (§5.1): with a predictable selection condition,
    // predicating the pointer selection roughly doubles the per-node
    // latency (value-load + compare + chase-load, serialized).
    Program pred = buildChase(true, 400, 16);
    Program br = buildChase(false, 400, 16);
    SimResult rp = runSim(pred);
    SimResult rb = runSim(br);
    EXPECT_GT(rp.cycles, rb.cycles * 3 / 2)
        << "predicated chase must be much slower than the branchy one";
}

TEST(CoreTest, NoDependOracleRemovesPredicationDelay)
{
    Program pred = buildChase(true, 400, 16);
    SimParams base;
    SimParams nodep;
    nodep.oracle.noDepend = true;
    SimResult rb = runSim(pred, base);
    SimResult rn = runSim(pred, nodep);
    EXPECT_LT(rn.cycles, rb.cycles * 3 / 4);
}

TEST(CoreTest, NoFetchOracleSavesBandwidth)
{
    // Lots of predicated-off instructions.
    Program p = assemble(R"(
        pset p1, 0
        li r5, 0
        li r4, 0
        loop:
        (p1) addi r4, r4, 1
        (p1) addi r4, r4, 1
        (p1) addi r4, r4, 1
        (p1) addi r4, r4, 1
        (p1) addi r4, r4, 1
        (p1) addi r4, r4, 1
        addi r5, r5, 1
        cmpi.lt p2, p0, r5, 500
        br p2, loop
        halt
    )");
    SimParams base;
    SimParams nofetch;
    nofetch.oracle.noFetch = true;
    StatSet s1, s2;
    SimResult rb = runSim(p, base, s1);
    SimResult rn = runSim(p, nofetch, s2);
    EXPECT_LT(rn.cycles, rb.cycles);
    EXPECT_LT(rn.retiredUops, rb.retiredUops);
    EXPECT_EQ(rn.resultReg, rb.resultReg);
}

TEST(CoreTest, PerfectCbpEliminatesFlushes)
{
    Program p = assemble(R"(
        li r5, 0
        li r6, 777
        li r4, 0
        loop:
        muli r6, r6, 69069
        addi r6, r6, 7
        shri r7, r6, 11
        andi r7, r7, 1
        cmpi.eq p1, p2, r7, 1
        br p1, skip
        addi r4, r4, 1
        skip:
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 500
        br p1, loop
        halt
    )");
    SimParams perfect;
    perfect.oracle.perfectCBP = true;
    StatSet stats;
    SimResult r = runSim(p, perfect, stats);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(stats.get("core.flushes"), 0u);
}

TEST(CoreTest, CallRetUseRas)
{
    Program p = assemble(R"(
        li r4, 0
        li r5, 0
        loop:
        call r2, func
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 50
        br p1, loop
        halt
        func:
        addi r4, r4, 1
        ret r2
    )");
    StatSet stats;
    SimResult r = runSim(p, SimParams{}, stats);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, 50);
}

TEST(CoreTest, IndirectJumpResolvesCorrectly)
{
    // A two-target indirect jump; target addresses live in a table.
    Program p = assemble(R"(
        li r4, 0
        li r5, 0
        li r9, 0x30000
        loop:
        andi r7, r5, 1
        shli r8, r7, 3
        add r8, r9, r8
        ld r10, r8, 0
        jmpr r10
        halt
        t1:
        addi r4, r4, 1
        jmp merge
        t2:
        addi r4, r4, 2
        merge:
        addi r5, r5, 1
        cmpi.lt p1, p0, r5, 40
        br p1, loop
        halt
    )");
    Word t1 = static_cast<Word>(instAddr(p.label("t1")));
    Word t2 = static_cast<Word>(instAddr(p.label("t2")));
    p.addData(0x30000, {t1, t2});

    SimResult r = runSim(p);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.resultReg, 20 * 1 + 20 * 2);
}

// ---- Wish-branch behaviors -------------------------------------------

/** Kernel with one hammock on pseudo-random data plus enough arm size to
 *  wish-convert; returns the five Table-3 binaries. */
std::map<BinaryVariant, CompiledBinary>
wishKernelVariants(int trip, int mask)
{
    KernelBuilder b;
    b.li(10, 0);
    b.li(4, 0);
    b.li(6, 12345);
    b.li(11, trip);
    b.doWhileLoop(5, [&] {
        b.muli(6, 6, 1103515245);
        b.addi(6, 6, 12345);
        b.shri(12, 6, 16);
        b.andi(12, 12, mask);
        b.cmpi(Opcode::CmpEqI, 1, 2, 12, 0);
        b.ifThenElse(
            1, 2,
            [&] {
                b.addi(4, 4, 7);
                b.muli(20, 4, 3);
                b.add(4, 4, 20);
                b.addi(4, 4, -1);
                b.addi(4, 4, 2);
                b.addi(4, 4, 5);
            },
            [&] {
                b.addi(4, 4, 9);
                b.muli(21, 4, 2);
                b.add(4, 4, 21);
                b.addi(4, 4, 4);
                b.addi(4, 4, 3);
                b.addi(4, 4, 1);
            });
        b.addi(10, 10, 1);
        b.cmp(Opcode::CmpLt, 5, 0, 10, 11);
    });
    IrFunction fn = b.finish();
    return compileAllVariants(fn);
}

TEST(WishCoreTest, AllVariantsProduceSameResultOnCore)
{
    auto variants = wishKernelVariants(300, 1);
    Word ref = 0;
    bool first = true;
    for (const auto &kv : variants) {
        SimResult r = runSim(kv.second.program);
        ASSERT_TRUE(r.halted) << variantName(kv.first);
        if (first) {
            ref = r.resultReg;
            first = false;
        }
        EXPECT_EQ(r.resultReg, ref) << variantName(kv.first);
    }
}

TEST(WishCoreTest, LowConfWishJumpAvoidsFlushes)
{
    // Hard-to-predict hammock: wish binary should flush far less than
    // the normal binary.
    auto variants = wishKernelVariants(2000, 1);
    StatSet sn, sw;
    SimParams params;
    runSim(variants.at(BinaryVariant::Normal).program, params, sn);
    runSim(variants.at(BinaryVariant::WishJumpJoin).program, params, sw);
    EXPECT_LT(sw.get("core.flushes"), sn.get("core.flushes") / 2)
        << "low-confidence wish jumps must not flush";
}

TEST(WishCoreTest, WishStatsCounted)
{
    auto variants = wishKernelVariants(2000, 1);
    StatSet stats;
    SimParams params;
    runSim(variants.at(BinaryVariant::WishJumpJoin).program, params,
           stats);
    std::uint64_t total =
        stats.get("wish.jump.low.correct") +
        stats.get("wish.jump.low.mispred") +
        stats.get("wish.jump.high.correct") +
        stats.get("wish.jump.high.mispred");
    EXPECT_GT(total, 1500u);
}

TEST(WishCoreTest, PredictableWishBranchGoesHighConf)
{
    // mask=0 makes the condition always true: trivially predictable.
    auto variants = wishKernelVariants(2000, 0);
    StatSet stats;
    SimParams params;
    runSim(variants.at(BinaryVariant::WishJumpJoin).program, params,
           stats);
    std::uint64_t high = stats.get("wish.jump.high.correct");
    std::uint64_t low = stats.get("wish.jump.low.correct") +
                        stats.get("wish.jump.low.mispred");
    EXPECT_GT(high, low * 3)
        << "a predictable wish jump should run in high-confidence mode";
}

TEST(WishCoreTest, PerfectConfidenceNotWorse)
{
    auto variants = wishKernelVariants(2000, 1);
    SimParams real;
    SimParams perf;
    perf.oracle.perfectConfidence = true;
    SimResult rr = runSim(variants.at(BinaryVariant::WishJumpJoin).program,
                          real);
    SimResult rp = runSim(variants.at(BinaryVariant::WishJumpJoin).program,
                          perf);
    EXPECT_LE(rp.cycles, rr.cycles * 21 / 20);
}

/** A loop with data-dependent trip counts: wish loops should observe
 *  late exits without flushing. */
std::map<BinaryVariant, CompiledBinary>
wishLoopKernelVariants(int outer)
{
    KernelBuilder b;
    b.li(10, 0);  // outer i
    b.li(4, 0);   // checksum
    b.li(6, 999); // rng state
    b.li(11, outer);
    b.doWhileLoop(5, [&] {
        // inner trip = 1 + (rand & 7): short, variable.
        b.muli(6, 6, 69069);
        b.addi(6, 6, 12345);
        b.shri(12, 6, 16);
        b.andi(12, 12, 7);
        b.addi(12, 12, 1);
        b.li(13, 0);
        b.doWhileLoop(1, [&] {
            b.add(4, 4, 13);
            b.addi(13, 13, 1);
            b.cmp(Opcode::CmpLt, 1, 0, 13, 12);
        });
        b.addi(10, 10, 1);
        b.cmp(Opcode::CmpLt, 5, 0, 10, 11);
    });
    IrFunction fn = b.finish();
    return compileAllVariants(fn);
}

TEST(WishCoreTest, WishLoopLateExitObserved)
{
    auto variants = wishLoopKernelVariants(1500);
    const auto &wjjl = variants.at(BinaryVariant::WishJumpJoinLoop);
    ASSERT_GT(wjjl.staticWishLoops, 0u);

    StatSet stats;
    SimParams params;
    SimResult r = runSim(wjjl.program, params, stats);
    ASSERT_TRUE(r.halted);

    std::uint64_t late = stats.get("wish.loop.low.late_exit");
    std::uint64_t early = stats.get("wish.loop.low.early_exit");
    std::uint64_t noexit = stats.get("wish.loop.low.no_exit");
    EXPECT_GT(late + early + noexit, 0u)
        << "the variable-trip loop must mispredict in low-conf mode";
    EXPECT_GT(late, 0u) << "late exits should occur with a 512-entry "
                           "window and short loops";
}

TEST(WishCoreTest, WishLoopBinaryNotSlowerThanNormal)
{
    auto variants = wishLoopKernelVariants(1500);
    SimResult rn = runSim(variants.at(BinaryVariant::Normal).program);
    SimResult rw =
        runSim(variants.at(BinaryVariant::WishJumpJoinLoop).program);
    // Hard-to-predict short loops: wish loops should help (or at least
    // not hurt by much).
    EXPECT_LT(rw.cycles, rn.cycles * 11 / 10);
}

TEST(WishCoreTest, SelectUopMechanismRuns)
{
    auto variants = wishKernelVariants(500, 1);
    SimParams sel;
    sel.predMech = PredMechanism::SelectUop;
    for (const auto &kv : variants) {
        SimResult r = runSim(kv.second.program, sel);
        EXPECT_TRUE(r.halted) << variantName(kv.first);
    }
    // Select-µop adds µop overhead on predicated code.
    StatSet s1, s2;
    SimParams cstyle;
    runSim(variants.at(BinaryVariant::BaseMax).program, cstyle, s1);
    runSim(variants.at(BinaryVariant::BaseMax).program, sel, s2);
    EXPECT_GT(s2.get("core.retired_uops"), s1.get("core.retired_uops"));
}

TEST(WishCoreTest, WishDisabledTreatsHintsAsNormalBranches)
{
    auto variants = wishKernelVariants(800, 1);
    SimParams off;
    off.wishEnabled = false;
    StatSet stats;
    SimResult r = runSim(variants.at(BinaryVariant::WishJumpJoin).program,
                         off, stats);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(stats.get("wish.jump.low.correct") +
                  stats.get("wish.jump.low.mispred") +
                  stats.get("wish.jump.high.correct") +
                  stats.get("wish.jump.high.mispred"),
              0u);
}

} // namespace
} // namespace wisc
