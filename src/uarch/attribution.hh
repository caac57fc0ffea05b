/**
 * @file
 * Cycle-attribution engine: a ProbeSink that charges every simulated
 * cycle to exactly one cause, producing a CPI stack that sums — by hard
 * assertion — to core.cycles, plus an optional per-static-branch
 * profile table.
 *
 * The paper's whole argument is an accounting argument: Figure 2
 * decomposes predication's cost into predicate-dependence and fetch
 * overhead by *re-running with features disabled*. The attribution
 * engine produces the same decomposition *inside one run*, the way
 * counter-based studies reason about real hardware. The taxonomy
 * (attrib.* counters):
 *
 *   base         cycles that retired at least one useful µop, plus
 *                no-retire cycles not claimed by a more specific cause
 *                (execution latency of the ROB head)
 *   pred_nop     cycles whose every retired µop was a predicated-FALSE
 *                NOP — predication's fetch/retire-bandwidth overhead
 *                (the NO-FETCH axis of Figure 2)
 *   pred_wait    no-retire cycles where the ROB head is un-issued and
 *                last waited on a predication-induced dependence
 *                (qualifying predicate or old destination value — the
 *                dependences the NO-DEPEND oracle removes; Figure 2's
 *                predicate-dependence axis)
 *   flush_normal, flush_wish_high, flush_loop_early, flush_loop_noexit
 *                no-retire cycles in the shadow of a pipeline flush,
 *                split by the §3.5.4 recovery cause
 *   cache_miss   no-retire cycles where the ROB head is a load with an
 *                outstanding L1D miss (or blocked at issue by the
 *                memory system)
 *   fetch_stall  no-retire cycles with an empty ROB (front end owes
 *                the machine work; I-cache misses, BTB bubbles, and
 *                post-flush refill beyond the flush shadow)
 *   rob_iq_full  no-retire cycles where rename stalled on ROB/IQ
 *                capacity and no older cause applies
 *
 * Causes are tested in the order above (a no-retire cycle in a flush
 * shadow with a missing head load is a flush cycle: the flush is the
 * older, controlling event). One cycle, one cause — the CPI stack is a
 * partition, not a co-occurrence matrix, which is what lets it sum
 * exactly to core.cycles.
 *
 * The attrib.* counters and the core.branch_profile table are
 * registered only when the engine runs (SimParams::collectAttribution /
 * collectBranchProfile), so default runs keep the golden stat set
 * bit-identical.
 */

#ifndef WISC_UARCH_ATTRIBUTION_HH_
#define WISC_UARCH_ATTRIBUTION_HH_

#include <cstdint>
#include <map>

#include "common/bytes.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "uarch/probe.hh"

namespace wisc {

/** Column order of the core.branch_profile StatTable. */
enum BranchProfileCol : std::size_t
{
    kBpCount = 0,   ///< retirements (see RetireProbe::isCondBr)
    kBpMispred,     ///< raw-predictor wrong at retire
    kBpHiCorrect,   ///< estimated high-confidence, predicted right
    kBpHiWrong,     ///< estimated high-confidence, predicted wrong
    kBpLoCorrect,   ///< estimated low-confidence, predicted right
    kBpLoWrong,     ///< estimated low-confidence, predicted wrong
    kBpFlushCycles, ///< flush-shadow cycles charged to this PC
    kBpNumCols,
};

class AttributionEngine : public ProbeSink
{
  public:
    /** Accumulates internally; nothing is registered in 'stats' until
     *  finish(), so an engine that never runs leaves no trace. */
    AttributionEngine(StatSet &stats, bool cpiStack, bool branchProfile);

    void onRetire(const RetireProbe &p) override;
    void onFlush(const FlushProbe &p) override;
    void onCycle(const CycleProbe &p) override;

    /**
     * Publish results into the StatSet and assert the invariant: the
     * CPI stack sums exactly to 'totalCycles'. Call once, after the
     * run loop, with the number of cycles *this engine observed* — for
     * a run resumed from a checkpoint that is the cycle delta, not the
     * absolute clock. Publication is additive (counters and table rows
     * use +=), so an engine covering each leg of a split run sums to
     * the uninterrupted stack.
     */
    void finish(Cycle totalCycles);

    /**
     * Walk the cross-cycle flush-shadow state, and only that, for a
     * checkpoint. A flush whose redirected work has not reached
     * retirement can span a drained checkpoint boundary (the squashing
     * branch itself retired, but nothing younger has); the resuming
     * engine must keep charging those cycles to the same flush cause.
     * Accumulated counters are deliberately *not* walked — each leg
     * publishes its own via finish(). Sequence numbers in the shadow
     * stay comparable because the core checkpoints its seq allocator.
     */
    void io(StateIO &io);

  private:
    enum Cause : unsigned
    {
        kBase = 0,
        kPredNop,
        kPredWait,
        kFlushNormal,
        kFlushWishHigh,
        kFlushLoopEarly,
        kFlushLoopNoExit,
        kCacheMiss,
        kFetchStall,
        kRobIqFull,
        kNumCauses,
    };

    static Cause flushCauseSlot(FlushCause c);

    StatSet &stats_;
    bool cpiStack_;
    bool branchProfile_;

    std::uint64_t cycles_[kNumCauses] = {};
    std::uint64_t classified_ = 0;

    // Per-cycle retire accumulation (reset at each CycleProbe).
    unsigned retiredThisCycle_ = 0;
    unsigned retiredNopsThisCycle_ = 0;

    // Flush shadow: the newest flush whose redirected work has not yet
    // reached retirement. Cleared when a µop younger than the flushing
    // branch retires.
    bool inFlushShadow_ = false;
    FlushCause shadowCause_ = FlushCause::Normal;
    SeqNum shadowSeq_ = 0;
    std::uint32_t shadowPc_ = 0;

    struct Profile
    {
        std::uint64_t cols[kBpNumCols] = {};
    };
    std::map<std::uint32_t, Profile> profiles_;
};

} // namespace wisc

#endif // WISC_UARCH_ATTRIBUTION_HH_
