/**
 * @file
 * Sampled-simulation orchestrator (SMARTS-style; DESIGN.md: sampling).
 *
 * Executes a run in two strata. Stratum A is an optional detailed
 * prefix (sampling.prefixUops) simulated cycle-accurately from reset —
 * identical to the full run's own cold start, so its cycles and
 * counters are exact; this is where a program's cold-start transient
 * (compulsory misses over the working set, steeply decaying CPI) is
 * measured rather than estimated. Stratum B is functional fast-forward
 * with µarchitectural warming (uarch/fastfwd.hh) punctuated by
 * periodic detailed windows: each window restores the warm checkpoint
 * into a Core of its own, runs a detailed-warmup span excluded from
 * measurement, then measures SimParams::sampling.measureUops
 * cycle-accurately. Per-window measurements aggregate into whole-run
 * estimates:
 *
 * The run-length coordinate is the *qp-true* retire count, because the
 * raw retired-µop stream is microarchitectural here: a low-confidence
 * wish branch converts to predication, and the core retires the
 * fall-through block as nullified µops where the functional reference
 * branches over it. The qp-true subsequence is identical across every
 * valid execution (that is the wish-branch correctness argument), so:
 *
 *   - CPI-hat = Σ measured cycles / Σ measured qp-true retires;
 *     estimated cycles = CPI-hat × Uqt where Uqt is the *exact*
 *     whole-run qp-true count from the functional engine;
 *   - every counter statistic is rate-scaled from its measured-window
 *     delta to whole-run exposure in the same coordinate (attribution
 *     counters, published only at window finish, scale over the full
 *     window including warmup);
 *   - the result register and memory fingerprint are exact, from the
 *     functional engine; Uqt is exact and reported as
 *     sampling.qp_true_uops; the whole-run retired-µop count is an
 *     estimate (Uqt plus rate-scaled nullified padding);
 *   - the per-window CPI spread yields a standard error, reported as
 *     fixed-point sampling.* meta-statistics.
 *
 * Histograms and tables are not estimated (a sampled outcome carries
 * none); a run whose program ends before any window completes falls
 * back to full detailed simulation and says so via sampling.fallback.
 */

#ifndef WISC_HARNESS_SAMPLED_RUNNER_HH_
#define WISC_HARNESS_SAMPLED_RUNNER_HH_

#include "harness/runner.hh"

namespace wisc {

/** Execute 'prog' in sampled mode (params.sampling.enabled must be
 *  set). Requires the C-style predication mechanism without NO-FETCH,
 *  so one functional instruction is one retired µop and the qp-true
 *  subsequences of the two engines are the same coordinate system. */
RunOutcome runSampled(const Program &prog, const SimParams &params);

} // namespace wisc

#endif // WISC_HARNESS_SAMPLED_RUNNER_HH_
