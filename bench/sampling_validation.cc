/**
 * @file
 * Golden validation of sampled simulation (DESIGN.md: sampling): every
 * kernel runs full-detail and sampled on the same machine, and the
 * bench reports per-kernel CPI error, window counts, and wall-clock
 * speedup, plus the aggregate targets — geomean CPI error and total
 * speedup. Architectural results (retired µops, result register,
 * memory fingerprint) must match *exactly*; that is asserted, not
 * reported.
 *
 * Sampling geometry adapts to kernel length (production SMARTS periods
 * assume billions of instructions; these runs are millions): a
 * detailed prefix covering the cold-start transient exactly, then ~32
 * windows of 8×ROB detailed warmup plus 16×ROB measured µops spread
 * across the statistically stationary remainder. Kernels run with
 * their outer trip counts scaled up (programFor's tripScale) so the
 * stationary part dominates — the regime sampling assumes.
 *
 * `run_matrix --smoke` (cli.smoke(); the sampling ctest entry runs
 * `--smoke --only sampling_validation`) reduces to two kernels at a
 * small trip scale (where sampling degenerates toward full detail —
 * the smoke entry validates plumbing and exactness invariants, not
 * the statistics). Optimized non-smoke
 * runs enforce the acceptance floor: geomean CPI error <= 2%,
 * aggregate speedup >= 10x.
 */

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "arch/emulator.hh"
#include "harness/bench_cli.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "uarch/fastfwd.hh"
#include "workloads/workload.hh"

using namespace wisc;

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
sampling_validation(BenchCli &cli)
{
    const bool smoke = cli.smoke();
    printBanner(std::cout, "Sampled-simulation validation",
                "full vs sampled runs, wish-jjl binaries, input A");

    const std::vector<std::string> kernels =
        smoke ? std::vector<std::string>{"gzip", "mcf"} : workloadNames();

    Table t({"benchmark", "uops", "cpi_full", "cpi_samp", "err%",
             "windows", "wall_full_s", "wall_samp_s", "speedup"});

    double logRatioSum = 0.0;
    double wallFull = 0.0, wallSamp = 0.0;
    std::size_t n = 0;

    // The long-kernel matrix: trip counts scaled up so the cold-start
    // transient (compulsory misses over the data footprint) is a small
    // fraction of total cycles — the regime sampled simulation assumes,
    // and the regime the paper's own SPEC runs are in. Smoke keeps the
    // scale small so the ctest entry stays fast.
    const std::uint64_t kScale = smoke ? 4 : 64;

    for (const std::string &k : kernels) {
        CompiledWorkload w = compileWorkload(k);
        Program prog = programFor(w, BinaryVariant::WishJumpJoinLoop,
                                  InputSet::A, kScale);

        // Final-state checking re-runs the program on the reference
        // emulator; keep it out of both timed legs so the speedup
        // compares simulation against simulation.
        SimParams fp;
        fp.checkFinalState = false;

        auto t0 = std::chrono::steady_clock::now();
        RunOutcome full = captureRun(prog, fp);
        auto t1 = std::chrono::steady_clock::now();
        wisc_assert(full.result.halted, "full run did not halt");
        const std::uint64_t uops = full.result.retiredUops;

        // The detailed prefix covers the program's cold-start
        // transient: one scale-1 pass of the kernel touches its whole
        // working set, so the functional length of the *unscaled*
        // program (a fast threaded-emulator run) bounds it. Doubled
        // because prefixUops is in the core's *retire* coordinate,
        // which pads the functional stream with nullified µops
        // wherever a wish branch predicates (up to ~60%); a prefix
        // that stops even slightly short of the first-touch boundary
        // leaves a compulsory-miss tail that the windows — warmed
        // with the *complete* first-pass footprint — can never see.
        // Overshooting merely measures some stationary code exactly.
        Program base = programFor(w, BinaryVariant::WishJumpJoinLoop,
                                  InputSet::A);
        FastForward bff(base, fp);
        bff.advanceTo(Emulator::kDefaultMaxSteps);
        wisc_assert(bff.halted(), k, ": unscaled run did not halt");

        // Window geometry scales with the machine and the kernel: the
        // detailed warmup must refill the out-of-order window several
        // times over before measurement starts (a 512-entry ROB at
        // IPC 2 is nowhere near steady state 300 µops in), and the
        // measured region must dwarf one ROB drain. Period is set from
        // the invariant qp-true length so ~32 windows spread across
        // the run instead of falling off its end.
        const std::uint64_t ujt =
            uops - full.require("core.retired_pred_false");
        SimParams sp = fp;
        sp.sampling.enabled = true;
        sp.sampling.warmupUops = 8 * fp.robSize;
        sp.sampling.measureUops = 16 * fp.robSize;
        sp.sampling.periodUops = std::max<std::uint64_t>(
            ujt / 32, sp.sampling.warmupUops + sp.sampling.measureUops);
        sp.sampling.prefixUops = 2 * bff.uops();

        auto t2 = std::chrono::steady_clock::now();
        RunOutcome samp = captureRun(prog, sp);
        auto t3 = std::chrono::steady_clock::now();

        // Architectural results are exact, never estimated. The raw
        // retired-µop count is *not* architectural on this machine
        // (predicated wish branches pad the stream with nullified
        // µops), so exactness is asserted in the execution-invariant
        // coordinate: qp-true retires, final register, final memory.
        wisc_assert(samp.require("sampling.qp_true_uops") == ujt,
                    k, ": sampled qp-true count ",
                    samp.require("sampling.qp_true_uops"),
                    " != full-run ", ujt);
        wisc_assert(samp.result.resultReg == full.result.resultReg,
                    k, ": sampled result register diverged");
        wisc_assert(samp.result.memFingerprint ==
                        full.result.memFingerprint,
                    k, ": sampled memory fingerprint diverged");
        wisc_assert(samp.stats.count("sampling.fallback") == 0,
                    k, ": sampled run fell back to full simulation");

        const double cpiF = static_cast<double>(full.result.cycles) /
                            static_cast<double>(uops);
        const double cpiS = static_cast<double>(samp.result.cycles) /
                            static_cast<double>(uops);
        const double err = std::abs(cpiS - cpiF) / cpiF;
        const double wf = seconds(t0, t1), ws = seconds(t2, t3);

        t.addRow({k, std::to_string(uops), Table::num(cpiF),
                  Table::num(cpiS), Table::num(err * 100.0),
                  std::to_string(samp.require("sampling.windows")),
                  Table::num(wf), Table::num(ws), Table::num(wf / ws)});

        // Cancellation-free aggregate: |ln ratio|, so an overestimate
        // on one kernel cannot hide an underestimate on another.
        logRatioSum += std::abs(std::log(cpiS / cpiF));
        wallFull += wf;
        wallSamp += ws;
        ++n;
    }
    t.print(std::cout);

    const double geomeanErr =
        std::exp(logRatioSum / static_cast<double>(n)) - 1.0;
    const double speedup = wallFull / wallSamp;
    std::cout << "\nGeomean CPI error: " << Table::num(geomeanErr * 100.0)
              << "%   aggregate speedup: " << Table::num(speedup)
              << "x\n";

    cli.addTable("table", t);
    cli.add("geomean_cpi_error", geomeanErr);
    cli.add("speedup", speedup);
    cli.add("wall_full_s", wallFull);
    cli.add("wall_sampled_s", wallSamp);
    cli.add("smoke", smoke);

#ifdef NDEBUG
    // Acceptance floors, enforced only on optimized full-matrix runs
    // (assert-enabled builds spend most of their time in assertions,
    // and the smoke subset is too small to be statistically stable).
    if (!smoke) {
        if (geomeanErr > 0.02) {
            std::cerr << "sampling_validation: geomean CPI error "
                      << geomeanErr * 100.0 << "% above the 2% floor\n";
            cli.finish();
            return 1;
        }
        if (speedup < 10.0) {
            std::cerr << "sampling_validation: speedup " << speedup
                      << "x below the 10x floor\n";
            cli.finish();
            return 1;
        }
    }
#endif
    return cli.finish();
}
