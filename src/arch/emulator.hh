/**
 * @file
 * Functional emulator: runs a Program to completion on the threaded
 * engine (arch/threaded.hh), optionally collecting an edge profile for
 * the compiler's cost model, and produces a result fingerprint that
 * every binary variant of the same kernel must match (the
 * architectural-equivalence invariant).
 */

#ifndef WISC_ARCH_EMULATOR_HH_
#define WISC_ARCH_EMULATOR_HH_

#include <cstdint>
#include <vector>

#include "arch/state.hh"
#include "isa/program.hh"

namespace wisc {

/** Per-static-instruction profile counters. */
struct InstProfile
{
    std::uint64_t execCount = 0;  ///< times the instruction was reached
    std::uint64_t takenCount = 0; ///< times a Br was taken (qp TRUE)
};

/** Whole-program profile, indexed by instruction index. */
struct Profile
{
    std::vector<InstProfile> perInst;
    std::uint64_t dynInsts = 0;

    /** Estimated taken probability of the branch at 'idx'. */
    double takenProb(std::uint32_t idx) const;

    /**
     * Compile-time misprediction-rate proxy for the branch at 'idx':
     * min(P(T), P(NT)), the error of the best static prediction. The
     * real ORC heuristics are profile-based too (§4.2.1).
     */
    double mispredictEstimate(std::uint32_t idx) const;
};

/** Result of a functional run. */
struct EmuResult
{
    bool halted = false;          ///< false means the step limit was hit
    std::uint64_t dynInsts = 0;   ///< retired instructions (incl. NOPs)
    std::uint64_t predFalse = 0;  ///< retired with FALSE qualifying pred
    Word resultReg = 0;           ///< r4 at halt, the kernel's checksum
    std::uint64_t memFingerprint = 0;
};

/** Functional emulator. */
class Emulator
{
  public:
    /** Hard cap on steps so broken programs terminate (user-adjustable). */
    static constexpr std::uint64_t kDefaultMaxSteps = 400'000'000;

    /**
     * Run the program from its entry point until Halt, on a fresh
     * architectural state (nothing carries over from an earlier run).
     *
     * @param prog     validated program to run
     * @param profile  if non-null, filled with per-instruction counters
     * @param maxSteps abort (halted=false) after this many instructions
     */
    EmuResult run(const Program &prog, Profile *profile = nullptr,
                  std::uint64_t maxSteps = kDefaultMaxSteps);

    /** Architectural state after the last run (for inspection in tests). */
    const ArchState &state() const { return state_; }

  private:
    ArchState state_;
};

} // namespace wisc

#endif // WISC_ARCH_EMULATOR_HH_
