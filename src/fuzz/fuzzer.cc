#include "fuzz/fuzzer.hh"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "arch/emulator.hh"
#include "arch/state_diff.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "compiler/driver.hh"
#include "compiler/ir_text.hh"
#include "fuzz/shrink.hh"
#include "harness/runner.hh"

namespace wisc {
namespace {

/** Common adjustments for every matrix point: the fuzzer does its own
 *  final-state comparison (reportable, shrinkable) instead of dying on
 *  the core-internal assert, and a timing hang must not stall the
 *  campaign. */
SimParams
fuzzBase()
{
    SimParams p;
    p.checkFinalState = false;
    p.maxCycles = 20'000'000;
    p.maxRetired = 20'000'000;
    return p;
}

} // namespace

std::vector<ParamsPoint>
defaultParamsMatrix(bool smoke)
{
    std::vector<ParamsPoint> m;

    {
        SimParams p = fuzzBase();
        p.collectAttribution = true;
        m.push_back({"default-attrib", p});
    }
    {
        SimParams p = fuzzBase();
        p.robSize = 64;
        p.iqSize = 16;
        p.lsqSize = 32;
        p.pollScheduler = true; // cross-checked against its event twin
        m.push_back({"small-poll", p});
    }
    {
        SimParams p = fuzzBase();
        p.confSets = 16;
        p.confHistBits = 4;
        p.confThreshold = 4;
        p.fetchWidth = 4;
        p.pipelineStages = 10;
        p.collectAttribution = true;
        m.push_back({"tiny-conf-shallow", p});
    }
    {
        // Small TAGE (with its free confidence estimator) so the zoo
        // is covered even on the smoke matrix; tables are kept tiny to
        // force aliasing, allocation churn and u-bit aging.
        SimParams p = fuzzBase();
        p.predictor = PredictorKind::Tage;
        p.confKind = ConfKind::Tage;
        p.tageTables = 4;
        p.tageEntriesLog2 = 6;
        p.tageBaseEntriesLog2 = 8;
        p.tageMaxHist = 32;
        p.tageResetPeriod = 4096;
        m.push_back({"tage-small", p});
    }
    {
        SimParams p = fuzzBase();
        p.predictor = PredictorKind::Bimodal;
        p.bimodalEntries = 256;
        m.push_back({"bimodal", p});
    }
    {
        // Dynamic predication, tuned hot: a small merge table with a
        // single-confirmation threshold on a tiny low-threshold JRS so
        // regions trigger constantly, on a small machine so the runtime
        // region cap and the trigger-deferral path are exercised under
        // IQ/ROB pressure.
        SimParams p = fuzzBase();
        p.dynPred = DynPredMode::MergePoint;
        p.dynMergeMinConf = 1;
        p.dynMergeEntries = 64;
        p.robSize = 64;
        p.iqSize = 16;
        p.lsqSize = 32;
        p.confSets = 16;
        p.confHistBits = 4;
        p.confThreshold = 6;
        p.collectAttribution = true;
        m.push_back({"dynpred-merge", p});
    }
    if (!smoke) {
        {
            SimParams p = fuzzBase();
            p.predMech = PredMechanism::SelectUop;
            p.collectAttribution = true;
            m.push_back({"select-uop", p});
        }
        {
            SimParams p = fuzzBase();
            p.confKind = ConfKind::UpDown;
            p.collectAttribution = true;
            m.push_back({"updown-conf", p});
        }
        {
            SimParams p = fuzzBase();
            p.predictor = PredictorKind::TwoLevel;
            p.twoLevelEntries = 1024;
            p.twoLevelHistBits = 6;
            m.push_back({"two-level", p});
        }
        {
            // Merge-point predication colliding with compiler wish
            // branches and select-µop expansion in the same frontend.
            SimParams p = fuzzBase();
            p.dynPred = DynPredMode::MergePoint;
            p.dynMergeMinConf = 1;
            p.predMech = PredMechanism::SelectUop;
            p.collectAttribution = true;
            m.push_back({"dynpred-merge-select", p});
        }
        {
            SimParams p = fuzzBase();
            p.dynPred = DynPredMode::FetchGate;
            p.dynFetchGateCycles = 8;
            p.collectAttribution = true;
            m.push_back({"dynpred-fetchgate", p});
        }
    }
    return m;
}

CheckOutcome
checkProgram(const IrFunction &fn, const FuzzOptions &opts)
{
    CheckOutcome out;
    auto fail = [&](const char *kind, const std::string &detail) {
        out.ok = false;
        out.kind = kind;
        out.detail = detail;
    };

    std::map<BinaryVariant, CompiledBinary> variants;
    try {
        CompileOptions copts;
        copts.profileMaxSteps = opts.emuMaxSteps;
        variants = compileAllVariants(fn, copts);
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        if (msg.find("out of predicate registers") != std::string::npos) {
            // Documented pass limitation, not a bug: count and skip.
            out.compileReject = true;
            return out;
        }
        if (msg.find("did not terminate") != std::string::npos) {
            // The profiling run hit the step budget: same invariant
            // violation as a non-halting variant, one stage earlier.
            fail("nonhalt", msg);
            return out;
        }
        fail("compile-fatal", msg);
        return out;
    }

    // (a) Functional equivalence, full state, every variant.
    Emulator refEmu;
    const Program &refProg =
        variants.at(BinaryVariant::Normal).program;
    EmuResult refRes = refEmu.run(refProg, nullptr, opts.emuMaxSteps);
    if (!refRes.halted) {
        fail("nonhalt",
             detail::format("normal variant did not halt within ",
                            opts.emuMaxSteps, " steps"));
        return out;
    }

    for (const auto &kv : variants) {
        Emulator emu;
        EmuResult res = emu.run(kv.second.program, nullptr,
                                opts.emuMaxSteps);
        ++out.variantsChecked;
        if (!res.halted) {
            fail("nonhalt",
                 detail::format(variantName(kv.first),
                                " did not halt within ",
                                opts.emuMaxSteps,
                                " steps (normal halted after ",
                                refRes.dynInsts, ")"));
            return out;
        }
        if (StateDiff d = firstStateDiff(refEmu.state(), emu.state())) {
            fail("emu-diverge",
                 detail::format(variantName(kv.first), ": ",
                                d.describe()));
            return out;
        }
    }

    // (b) + (c) Cycle-accurate core across the machine matrix.
    if (!opts.runCore)
        return out;
    for (const ParamsPoint &pt : opts.matrix) {
        for (const auto &kv : variants) {
            const char *vn = variantName(kv.first);
            RunOutcome r;
            try {
                r = captureRun(kv.second.program, pt.params);
            } catch (const FatalError &e) {
                fail("core-fatal", detail::format(pt.label, "/", vn,
                                                  ": ", e.what()));
                return out;
            }
            ++out.coreRuns;
            if (!r.result.halted) {
                fail("core-hang",
                     detail::format(pt.label, "/", vn,
                                    ": core hit the cycle limit at ",
                                    r.result.cycles, " cycles"));
                return out;
            }
            if (r.result.resultReg != refRes.resultReg ||
                r.result.memFingerprint != refRes.memFingerprint) {
                fail("core-diverge",
                     detail::format(
                         pt.label, "/", vn, ": result ",
                         r.result.resultReg, " vs emulator ",
                         refRes.resultReg, ", memfp ",
                         r.result.memFingerprint, " vs ",
                         refRes.memFingerprint));
                return out;
            }
            if (pt.params.collectAttribution) {
                std::uint64_t sum = 0;
                for (const auto &st : r.stats)
                    if (st.first.rfind("attrib.", 0) == 0)
                        sum += st.second;
                if (sum != r.result.cycles) {
                    fail("attrib-invariant",
                         detail::format(pt.label, "/", vn, ": sum(",
                                        sum, ") != core.cycles(",
                                        r.result.cycles, ")"));
                    return out;
                }
            }
            if (pt.params.pollScheduler) {
                // The poll scan is the event scheduler's verification
                // reference: identical machines must produce identical
                // statistics.
                SimParams twin = pt.params;
                twin.pollScheduler = false;
                RunOutcome e = captureRun(kv.second.program, twin);
                ++out.coreRuns;
                if (e.result.cycles != r.result.cycles ||
                    e.stats != r.stats) {
                    fail("sched-mismatch",
                         detail::format(pt.label, "/", vn,
                                        ": poll vs event scheduler "
                                        "statistics differ (cycles ",
                                        r.result.cycles, " vs ",
                                        e.result.cycles, ")"));
                    return out;
                }
            }
        }
    }
    return out;
}

std::string
formatReproducer(const FuzzFailure &f, const IrFunction &fn)
{
    std::ostringstream os;
    os << "; wisc_fuzz reproducer\n";
    os << "; seed=" << f.seed << "\n";
    os << "; kind=" << f.kind << "\n";
    std::string detail = f.detail;
    for (char &c : detail)
        if (c == '\n')
            c = ' ';
    os << "; detail=" << detail << "\n";
    os << irToText(fn);
    return os.str();
}

CheckOutcome
replayReproducer(const std::string &text, const FuzzOptions &opts)
{
    IrFunction fn = irFromText(text);
    return checkProgram(fn, opts);
}

FuzzReport
fuzzCampaign(const FuzzOptions &opts, std::ostream *log)
{
    FuzzReport rep;
    for (unsigned i = 0; i < opts.runs; ++i) {
        const std::uint64_t progSeed =
            mixHash(opts.seed + 0x9e3779b97f4a7c15ull * (i + 1));
        IrFunction fn = generateProgram(progSeed, opts.gen);
        CheckOutcome c = checkProgram(fn, opts);
        ++rep.programs;
        rep.variantsChecked += c.variantsChecked;
        rep.coreRuns += c.coreRuns;
        if (c.compileReject) {
            ++rep.compileRejects;
            continue;
        }
        if (c.ok)
            continue;

        FuzzFailure f;
        f.seed = progSeed;
        f.kind = c.kind;
        f.detail = c.detail;
        if (log)
            *log << "wisc_fuzz: seed " << progSeed << " FAILED ["
                 << c.kind << "] " << c.detail << std::endl;

        IrFunction minimized = fn;
        if (opts.shrink) {
            // Shrinking re-checks the predicate hundreds of times, so
            // drop the core matrix unless the failure needs it.
            FuzzOptions so = opts;
            so.shrink = false;
            const bool coreKind = f.kind.rfind("core", 0) == 0 ||
                                  f.kind == "attrib-invariant" ||
                                  f.kind == "sched-mismatch";
            so.runCore = coreKind;
            const unsigned budget = coreKind ? 400 : 1500;
            auto sameFailure = [&](const IrFunction &cand) {
                CheckOutcome cc = checkProgram(cand, so);
                return !cc.ok && cc.kind == f.kind;
            };
            ShrinkStats st;
            minimized = shrinkIr(fn, sameFailure, &st, budget);
            CheckOutcome cc = checkProgram(minimized, so);
            if (!cc.ok)
                f.detail = cc.detail;
            if (log)
                *log << "wisc_fuzz: shrunk with " << st.checks
                     << " checks / " << st.accepted << " edits ("
                     << st.rounds << " rounds)" << std::endl;
        }
        f.minimizedIr = irToText(minimized);

        if (!opts.reproDir.empty()) {
            std::filesystem::create_directories(opts.reproDir);
            std::string path =
                opts.reproDir + "/repro_" + std::to_string(progSeed) +
                "_" + f.kind + ".ir";
            std::ofstream of(path);
            of << formatReproducer(f, minimized);
            if (of.good())
                f.reproPath = path;
            else
                wisc_warn("wisc_fuzz: failed to write reproducer ", path);
            if (log && !f.reproPath.empty())
                *log << "wisc_fuzz: reproducer written to " << path
                     << std::endl;
        }
        rep.failures.push_back(std::move(f));
    }
    return rep;
}

} // namespace wisc
