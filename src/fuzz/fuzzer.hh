/**
 * @file
 * Differential fuzzing driver.
 *
 * For each seed: generate a structured random program (generator.hh),
 * compile all five Table-3 binary variants, and cross-check
 *
 *  (a) the functional emulator across variants — full architectural
 *      state (every integer register and memory word) must match the
 *      normal variant's; the first differing word is reported
 *      (checkVariantEquivalence, compiler/driver.hh);
 *  (b) the cycle-accurate core across a SimParams matrix (confidence
 *      geometry, ROB/IQ sizes, poll vs. event scheduler, predication
 *      mechanism) — result register and memory fingerprint must match
 *      the emulator on every variant × machine point. The core executes
 *      through executeInst() and the emulator through threadedRun(),
 *      two instantiations of the same opcode bodies (arch/semantics.hh).
 *
 * On the points with collectAttribution on, the attribution engine
 * itself asserts that the attrib.* CPI stack sums to core.cycles
 * (AttributionEngine::finish), so no run returns a stack that does not.
 *
 * On divergence the driver shrinks the program (shrink.hh) under a
 * predicate that re-checks the same failure kind, and writes a
 * self-contained reproducer (seed + failure + IR text) that
 * replayReproducer() re-checks byte-for-byte.
 */

#ifndef WISC_FUZZ_FUZZER_HH_
#define WISC_FUZZ_FUZZER_HH_

#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/generator.hh"
#include "uarch/params.hh"

namespace wisc {

/** One machine configuration of the cross-check matrix. */
struct ParamsPoint
{
    std::string label;
    SimParams params;
};

/**
 * The default SimParams matrix. Every point disables checkFinalState
 * (the fuzzer does that comparison itself, reportably, instead of
 * dying on a core-internal assert) and bounds maxCycles so a timing
 * hang cannot stall the fuzzer.
 *
 * 'smoke' keeps five points (default+attribution, small window with
 * the poll scheduler, tiny confidence estimator, a small TAGE with its
 * free confidence estimator, and a bimodal); the full matrix adds
 * select-µop predication, an up/down-estimator point, and a standalone
 * two-level predictor.
 */
std::vector<ParamsPoint> defaultParamsMatrix(bool smoke);

/** Fuzzing campaign configuration. */
struct FuzzOptions
{
    std::uint64_t seed = 1;      ///< campaign seed
    unsigned runs = 200;         ///< programs to generate
    GenConfig gen;               ///< program-shape knobs
    bool runCore = true;         ///< also run the cycle-accurate core
    std::vector<ParamsPoint> matrix = defaultParamsMatrix(true);
    std::uint64_t emuMaxSteps = 2'000'000; ///< per-run emulator budget
    bool shrink = true;          ///< minimize failures before reporting
    std::string reproDir;        ///< write reproducers here ("" = off)
};

/** One detected failure. */
struct FuzzFailure
{
    std::uint64_t seed = 0;   ///< per-program seed (regenerates it)
    std::string kind;         ///< "emu-diverge", "core-diverge", ...
    std::string detail;       ///< first differing word, variant, point
    std::string reproPath;    ///< file written, if reproDir was set
    std::string minimizedIr;  ///< IR text after shrinking
};

/** Campaign result. */
struct FuzzReport
{
    unsigned programs = 0;       ///< programs generated and checked
    unsigned variantsChecked = 0;///< variant runs on the emulator
    unsigned coreRuns = 0;       ///< core simulations executed
    unsigned compileRejects = 0; ///< out-of-predicate-register skips
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
};

/** Outcome of checking one program (shared by fuzz loop and replay). */
struct CheckOutcome
{
    bool ok = true;
    std::string kind;   ///< empty when ok
    std::string detail; ///< empty when ok
    bool compileReject = false; ///< fresh-guard pool exhausted: skip
    unsigned variantsChecked = 0;
    /** Always 0: nothing sets it. Declared only because the host-time
     *  benchmark (bench/perf/workloads.cc) hashes it into its digest;
     *  remove it there and here together. */
    unsigned dispatchChecked = 0;
    unsigned coreRuns = 0;
};

/** Differential check of one IR function under the given options. */
CheckOutcome checkProgram(const IrFunction &fn, const FuzzOptions &opts);

/** Run a campaign. Progress and failures are narrated to 'log' when
 *  non-null. */
FuzzReport fuzzCampaign(const FuzzOptions &opts,
                        std::ostream *log = nullptr);

/** Serialize a reproducer document (header comments + IR text). */
std::string formatReproducer(const FuzzFailure &f, const IrFunction &fn);

/**
 * Parse a reproducer file's contents (the comment header is ignored by
 * the IR parser) and re-run the differential check. Returns the check
 * outcome for the *current* tree — a fixed bug yields ok=true.
 */
CheckOutcome replayReproducer(const std::string &text,
                              const FuzzOptions &opts);

} // namespace wisc

#endif // WISC_FUZZ_FUZZER_HH_
