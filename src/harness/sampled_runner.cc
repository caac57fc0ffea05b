#include "harness/sampled_runner.hh"

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "arch/emulator.hh"
#include "common/log.hh"
#include "uarch/fastfwd.hh"

namespace wisc {

namespace {

bool
isAttrib(const std::string &name)
{
    return name.rfind("attrib.", 0) == 0;
}

/** Round a non-negative rate-scaled estimate into a counter value. */
std::uint64_t
scaleCount(std::uint64_t delta, std::uint64_t whole, std::uint64_t window)
{
    if (window == 0)
        return 0;
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(delta) *
                     static_cast<double>(whole) /
                     static_cast<double>(window)));
}

} // namespace

RunOutcome
runSampled(const Program &prog, const SimParams &params)
{
    const auto &sp = params.sampling;
    wisc_assert(sp.enabled, "runSampled() without sampling.enabled");
    wisc_assert(sp.periodUops > 0 && sp.measureUops > 0,
                "sampling needs a nonzero period and measurement window");
    // The retired µop stream is *microarchitectural* on this machine: a
    // low-confidence wish branch is converted to predication, so the
    // core retires the fall-through block as nullified µops where the
    // functional reference branches over it. The execution-invariant
    // coordinate — identical across every valid path, branch-mode or
    // predicated — is the predicated-TRUE µop count, so the estimator
    // measures cycles per qp-true retire and extrapolates over the
    // functional engine's exact qp-true total. That identification
    // needs every instruction to rename to exactly one µop with
    // qp-false µops still flowing through the pipe (C-style, no
    // NO-FETCH oracle).
    wisc_assert(params.predMech == PredMechanism::CStyle &&
                    !params.oracle.noFetch,
                "sampled simulation requires the C-style predication "
                "mechanism without the NO-FETCH oracle");
    // Dynamic predication: FetchGate warms like everything else, since
    // the fast-forward runs the core's own branch rules (its estimator
    // trains on every normal branch). The fast-forward rejects
    // MergePoint itself: the merge-point table learns from the timing
    // path's retired stream, which a functional run lacks.

    // The window cores and the fast-forward engine must agree on the
    // params fingerprint (the checkpoint guard), so both get the same
    // modified copy: final-state checking is off because a window that
    // happens to retire Halt must not trigger a whole-program reference
    // emulation per window — the sampled result is checked against the
    // functional engine below anyway.
    SimParams wp = params;
    wp.checkFinalState = false;

    // The functional engine gets the same hard step budget the
    // reference emulator runs under; window starts are capped at it so
    // `nextStart` arithmetic cannot overflow (period and skip are
    // params-controlled and could otherwise sum past 2^64).
    const std::uint64_t kCap = Emulator::kDefaultMaxSteps;

    FastForward ff(prog, wp);

    const std::string kPredFalse = "core.retired_pred_false";
    std::vector<double> windowCpi; // cycles per qp-true retire
    std::uint64_t measCycles = 0, measQt = 0;
    std::uint64_t windowCycles = 0, windowQt = 0; // incl. warmup
    std::map<std::string, std::uint64_t> measDelta;
    std::map<std::string, std::uint64_t> attribDelta;

    // Stratum A: the detailed prefix, simulated cycle-accurately from
    // reset — byte-for-byte the same machine evolution as the full
    // run's own cold start, so its cycles and counters are *exact*
    // (a stratum sampled at a 100% rate). This is where the program's
    // cold-start transient lives: a fixed cycle cost with a steeply
    // decaying CPI profile that periodic windows systematically
    // mis-estimate in either direction.
    std::uint64_t prefixCycles = 0, prefixRetired = 0, prefixQt = 0;
    bool prefixHalted = false;
    std::map<std::string, std::uint64_t> prefixDelta;
    if (sp.prefixUops > 0) {
        StatSet ps;
        Core core(wp, ps, prog);
        core.advance(sp.prefixUops, /*drain=*/false);
        prefixCycles = core.cycles();
        prefixRetired = core.retired();
        prefixHalted = core.halted();
        core.finishRun(); // publishes attribution into ps
        prefixQt = prefixRetired - ps.get(kPredFalse);
        prefixDelta = ps.record().stats;
    }

    // Stratum B: periodic detailed windows over the remainder, the
    // first one centered half a period past the prefix. Each window is
    // a Core restored from the fast-forward's checkpoint with its own
    // StatSet, so its counters start at zero.
    std::uint64_t nextStart = sp.prefixUops + sp.periodUops / 2;
    while (!prefixHalted && nextStart <= kCap) {
        ff.advanceTo(nextStart);
        if (ff.halted())
            break;

        CoreCheckpoint ckpt;
        ff.checkpoint(ckpt);
        StatSet ws;
        Core core(wp, ws, prog, ckpt);
        const auto &counters = ws.record().stats;

        const Cycle start = core.cycles();
        const std::uint64_t base = core.retired();
        core.advance(base + sp.warmupUops, /*drain=*/false);

        // Post-warmup marks and counter snapshot: measurement starts
        // here. A window whose program ends inside the warmup yields
        // no measurement.
        const bool warmHalted = core.halted();
        const Cycle c0 = core.cycles();
        const std::uint64_t u0 = core.retired();
        std::map<std::string, std::uint64_t> snapMeas = counters;

        if (!warmHalted)
            core.advance(u0 + sp.measureUops, /*drain=*/false);
        const Cycle mc = core.cycles() - c0;
        const std::uint64_t mu = core.retired() - u0;
        core.finishRun(); // publishes attribution into ws

        // Measured work in the invariant coordinate: qp-true retires
        // (total retires minus the window's nullified ones).
        const std::uint64_t mpf = ws.get(kPredFalse) - snapMeas[kPredFalse];
        wisc_assert(mpf <= mu, "pred-false retires exceed retires");
        const std::uint64_t mqt = mu - mpf;

        if (mqt > 0) {
            windowCpi.push_back(static_cast<double>(mc) /
                                static_cast<double>(mqt));
            measCycles += mc;
            measQt += mqt;
            windowCycles += core.cycles() - start;
            windowQt += core.retired() - base - ws.get(kPredFalse);
            for (const auto &[name, v] : counters) {
                if (isAttrib(name)) {
                    // Attribution publishes only at finishRun, so its
                    // per-window exposure is the whole window.
                    attribDelta[name] += v;
                } else {
                    auto it = snapMeas.find(name);
                    measDelta[name] +=
                        v - (it == snapMeas.end() ? 0 : it->second);
                }
            }
        }

        if (core.halted())
            break; // the window covered the program's end
        if (nextStart > kCap - sp.periodUops)
            break; // next start would exceed the functional budget
        nextStart += sp.periodUops;
    }

    // Exact architectural results from the functional engine. The
    // functional qp-true count is the execution-invariant run length;
    // the functional qp-false count is NOT the core's (the core adds
    // nullified µops wherever it predicates a wish branch).
    ff.advanceTo(kCap);
    wisc_assert(ff.halted(), "program did not halt within ", kCap,
                " functionally executed instructions");
    const std::uint64_t wholeQt = ff.uops() - ff.predFalse();

    if (prefixHalted)
        wisc_assert(prefixQt == wholeQt,
                    "detailed prefix retired ", prefixQt,
                    " qp-true µops but the functional engine says ",
                    wholeQt);

    if (measQt == 0 && !prefixHalted) {
        // Too short for even one measured window: run it for real and
        // mark the fallback so consumers can tell. Sampling is switched
        // off in the copy or captureRun() would route right back here.
        SimParams fb = params;
        fb.sampling.enabled = false;
        RunOutcome out = captureRun(prog, fb);
        out.stats["sampling.fallback"] = 1;
        return out;
    }

    // Stratum B estimate: cycles per qp-true retire over the sampled
    // remainder. When the prefix swallowed the whole program the
    // remainder is empty and the "estimate" is exact.
    const std::uint64_t remQt = wholeQt - prefixQt;
    const double cpiHat =
        measQt > 0 ? static_cast<double>(measCycles) /
                         static_cast<double>(measQt)
                   : 0.0;

    RunOutcome out;
    out.result.halted = true;
    out.result.cycles =
        prefixCycles + static_cast<Cycle>(std::llround(
                           cpiHat * static_cast<double>(remQt)));
    out.result.resultReg = ff.archState().readReg(4);
    out.result.memFingerprint = ff.archState().mem().fingerprint();

    // Every counter is the exact prefix count plus its window delta
    // rate-scaled over the remainder in the qp-true coordinate; the
    // whole-run retired-µop count is then the invariant length plus
    // the (part exact, part estimated) nullified padding.
    for (const auto &kv : prefixDelta)
        out.stats[kv.first] = kv.second;
    for (const auto &kv : measDelta)
        out.stats[kv.first] += scaleCount(kv.second, remQt, measQt);
    for (const auto &kv : attribDelta)
        out.stats[kv.first] += scaleCount(kv.second, remQt, windowQt);
    out.result.retiredUops =
        wholeQt + out.stats["core.retired_pred_false"];

    // Overrides where the estimator itself is authoritative.
    out.stats["core.cycles"] = out.result.cycles;
    out.stats["core.retired_uops"] = out.result.retiredUops;

    // Per-window CPI spread -> standard error of the CPI estimate. With
    // fewer than two measurement windows (short program, large period)
    // there is no spread to divide by: the half-width is *unavailable*,
    // not zero — a silent 0 here used to read as "perfect confidence"
    // downstream, so the validity is reported explicitly and the
    // estimate itself is withheld.
    const std::size_t n = windowCpi.size();
    const bool seValid = n >= 2;
    double se = 0.0;
    if (seValid) {
        double var = 0.0;
        for (double c : windowCpi) {
            const double d = c - cpiHat;
            var += d * d;
        }
        var /= static_cast<double>(n - 1);
        se = std::sqrt(var / static_cast<double>(n));
    }

    out.stats["sampling.windows"] = n;
    out.stats["sampling.qp_true_uops"] = wholeQt;      // exact
    out.stats["sampling.functional_insts"] = ff.uops(); // exact
    out.stats["sampling.prefix_uops"] = prefixRetired;  // exact
    out.stats["sampling.prefix_cycles"] = prefixCycles; // exact
    out.stats["sampling.prefix_qp_true"] = prefixQt;    // exact
    out.stats["sampling.measured_qp_true"] = measQt;
    out.stats["sampling.measured_cycles"] = measCycles;
    out.stats["sampling.window_qp_true"] = windowQt;
    out.stats["sampling.window_cycles"] = windowCycles;
    out.stats["sampling.cpi_x1e6"] = static_cast<std::uint64_t>(
        std::llround(cpiHat * 1e6));
    out.stats["sampling.cpi_se_valid"] = seValid ? 1 : 0;
    if (seValid)
        out.stats["sampling.cpi_se_x1e6"] = static_cast<std::uint64_t>(
            std::llround(se * 1e6));
    return out;
}

} // namespace wisc
