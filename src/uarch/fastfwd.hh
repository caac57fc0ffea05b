/**
 * @file
 * Functional fast-forward for sampled simulation (SMARTS-style,
 * DESIGN.md: sampling).
 *
 * A thin owner of a Core that only fast-forwards (Core::fastForward):
 * the threaded-code functional engine runs over the core's own
 * architectural state, and every branch and control transfer goes
 * through the core's own front-end, recovery and retire rules, so the
 * direction predictor, confidence estimator, BTB, RAS, indirect target
 * cache, wish engine and cache tags warm exactly as the core's correct
 * path trains them. That includes the core's *history convention*: a
 * correctly predicated low-confidence wish branch never flushes, so its
 * history bit stays the effective (fall-through) direction even when
 * the branch was taken, and the warmed tables are indexed under the
 * histories the core produces.
 *
 * The warming core never cycles: its clock, seq/uid allocators and
 * fetch stall stay at their reset values, data accesses warm cache
 * tags without fill timing, and it emits no probe, so a checkpoint
 * carries an empty fill ledger and, on a machine that attaches the
 * attribution engine, the engine's initial flush shadow. Truly
 * pipeline-local state — in-flight µops, fetch stalls — is re-warmed
 * by each window's detailed-warmup prefix (SamplingParams::warmupUops).
 *
 * The engine owns a private StatSet so the warming core's counter
 * traffic never pollutes the caller's statistics.
 */

#ifndef WISC_UARCH_FASTFWD_HH_
#define WISC_UARCH_FASTFWD_HH_

#include <cstdint>

#include "arch/state.hh"
#include "common/stats.hh"
#include "isa/program.hh"
#include "uarch/checkpoint.hh"
#include "uarch/core.hh"
#include "uarch/params.hh"

namespace wisc {

class FastForward
{
  public:
    /** Binds to (and must not outlive) 'prog'. Starts the core at
     *  reset, text image warmed, exactly as a detailed run starts. */
    FastForward(const Program &prog, const SimParams &params);

    /**
     * Execute forward until `targetUops` *total* executed instructions
     * (whole-run coordinate), or the program halts. Monotone: a target
     * at or below the current position is a no-op, so callers cannot
     * underflow the step budget. Never overshoots by even one
     * instruction (the threaded engine checks its budget before each
     * dispatch).
     */
    void advanceTo(std::uint64_t targetUops) { core_.fastForward(targetUops); }

    /** Instructions executed so far (== retired µops of a detailed run
     *  under the C-style predication mechanism without NO-FETCH; the
     *  sampled runner asserts that equivalence). */
    std::uint64_t uops() const { return core_.retired(); }

    /** Instructions nullified by a FALSE qualifying predicate so far. */
    std::uint64_t predFalse() const;

    bool halted() const { return core_.halted(); }

    /** Current architectural state (exact-result extraction: result
     *  register, memory fingerprint). */
    const ArchState &archState() const { return core_.archState(); }

    /** Capture a warm-state checkpoint at the current position,
     *  restorable into a Core built from 'prog' and the checkpoint. */
    void checkpoint(CoreCheckpoint &out) const { core_.checkpoint(out); }

  private:
    StatSet stats_; ///< private sink for the warming core's counters
    Core core_;
};

} // namespace wisc

#endif // WISC_UARCH_FASTFWD_HH_
