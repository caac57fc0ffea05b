/**
 * @file
 * Front-end wish-branch hardware (§3.5):
 *
 *  - the mode state machine of Figure 8 (normal / high-confidence /
 *    low-confidence), including the "target fetched" and "loop exited"
 *    exit transitions;
 *  - the predicate dependency elimination buffer (§3.5.3), extended with
 *    a decode-maintained complement map so that the complement predicate
 *    written by the same compare is predicted too (IA-64 compares write
 *    complementary pairs; Figure 3c relies on (!p1) instructions
 *    executing early when the jump is predicted not-taken);
 *  - the per-static-wish-loop tables: the loop-instance counter the
 *    misprediction recovery module (§3.5.4) uses to tell early-exit,
 *    late-exit and no-exit apart (it refines the paper's last-prediction
 *    buffer), and the trip-count state of the overestimating loop
 *    predictor (§3.2).
 */

#ifndef WISC_UARCH_WISH_HH_
#define WISC_UARCH_WISH_HH_

#include <array>
#include <cstdint>
#include <map>
#include <optional>

#include "common/bytes.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace wisc {

/** Figure 8 front-end modes. */
enum class FrontEndMode : std::uint8_t
{
    Normal,
    HighConf,
    LowConf,
};

/** Decision returned to the fetch stage for a fetched wish branch. */
struct WishDecision
{
    /** Direction the front end should follow. */
    bool effectiveTaken = false;
    /** Mode recorded for this branch (drives recovery, §3.5.4 footnote:
     *  the mode when the branch was *fetched*). */
    FrontEndMode branchMode = FrontEndMode::Normal;
    /** Confidence estimate that produced the decision. */
    bool highConfidence = false;
};

class WishEngine
{
  public:
    WishEngine(StatSet &stats, bool loopBias);

    FrontEndMode mode() const { return mode_; }

    /** Fetch calls this for every instruction before decoding it, so the
     *  "target fetched" mode exit (Figure 8) fires at the right point:
     *  the target of the wish jump/join that caused the mode entry has
     *  been fetched. Inline: it runs once per fetched or fast-forwarded
     *  instruction. */
    void
    onInstructionFetched(std::uint32_t pc)
    {
        if (mode_ != FrontEndMode::Normal && !lowConfFromLoop_ &&
            pc == pendingTarget_)
            mode_ = FrontEndMode::Normal;
    }

    /**
     * Fetch calls this for each wish branch. 'predictorTaken' is the raw
     * branch predictor output, 'highConf' the confidence estimate for
     * it, and 'takenTarget' the branch's taken target.
     */
    WishDecision onWishBranch(std::uint32_t pc, WishKind kind,
                              bool predictorTaken, bool highConf,
                              std::uint32_t takenTarget);

    /** Any pipeline flush returns the front end to normal mode and
     *  clears the predicate prediction buffer. */
    void onFlush();

    /** Walk all value state (checkpointing): mode machine, predicate
     *  buffer, complement map, and the per-static-loop trip-count and
     *  instance tables. */
    void io(StateIO &io);

    // --- predicate dependency elimination buffer (§3.5.3) -------------

    /** Decode notes every compare so the complement pairing is known. */
    void
    noteCompare(PredIdx pd, PredIdx pd2)
    {
        if (pd != kPredNone && pd2 != kPredNone) {
            complementOf_[pd] = pd2;
            complementOf_[pd2] = pd;
        }
    }

    /** Decode notes every predicate write; a write to a buffered
     *  predicate invalidates its entry. */
    void
    notePredWrite(PredIdx pd)
    {
        if (pd != kPredNone)
            predBuffer_[pd] = -1;
    }

    /** Predicted value for a source predicate, if buffered. */
    std::optional<bool> predictedPredicate(PredIdx p) const;

    // --- wish loop recovery state (§3.5.4) -----------------------------

    /**
     * Front-end loop-instance counter: bumped every time the front end
     * predicts an exit from the static wish loop at 'pc'. The recovery
     * module compares a mispredicted branch's fetch-time instance with
     * the current one: a difference proves the front end exited the loop
     * after that branch was fetched (late exit, no flush needed). This
     * refines the paper's last-prediction buffer and fixes the footnote-8
     * exit-then-reenter misclassification, which our short kernels would
     * otherwise hit constantly.
     */
    std::uint32_t loopInstance(std::uint32_t pc) const;

  private:
    void enterLowConf(WishKind kind, std::uint32_t pendingTarget);
    void armPredicateBuffer(PredIdx srcPred, bool value);

    FrontEndMode mode_ = FrontEndMode::Normal;
    bool lowConfFromLoop_ = false;
    std::uint32_t pendingTarget_ = 0xffffffff;

    /** Predicted value per predicate register, -1 = not buffered (the
     *  §3.5.3 special buffer). Queried for every fetched µop, so it is
     *  a flat array rather than a map. */
    std::array<std::int8_t, kNumPredRegs> predBuffer_;
    /** Complement written by the same compare, kPredNone = unknown. */
    std::array<PredIdx, kNumPredRegs> complementOf_;

    /** Overestimating loop predictor state (§3.2): per static loop. */
    struct LoopTripState
    {
        std::uint32_t fetchIter = 0; ///< iterations fetched this entry
        std::uint32_t ewmaTrip4 = 0; ///< EWMA of observed trips, x4 fixed
        /** The EWMA trains on the hybrid's *first* natural exit per loop
         *  instance; suppressed exits must not feed back into it. */
        bool recordedThisInstance = false;
    };
    std::map<std::uint32_t, LoopTripState> loopTrips_;
    std::map<std::uint32_t, std::uint32_t> loopInstanceOf_;
    bool loopBias_;
    Counter *biasOverrides_;

    Counter *lowEntries_;
    Counter *highEntries_;
    /** The branch's own qp, needed when arming the buffer. Set by fetch
     *  via setBranchPredicate() before onWishBranch(). */
    PredIdx branchPred_ = 0;

  public:
    /** Fetch provides the wish branch's source predicate register just
     *  before calling onWishBranch(). */
    void setBranchPredicate(PredIdx p) { branchPred_ = p; }
};

} // namespace wisc

#endif // WISC_UARCH_WISH_HH_
