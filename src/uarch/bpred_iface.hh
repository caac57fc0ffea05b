/**
 * @file
 * The pluggable direction-predictor and confidence-estimator
 * interfaces. The core owns exactly one IBranchPredictor and one
 * IConfidence, constructed by the factories below from
 * SimParams::predictor / SimParams::confKind (both fingerprinted, so
 * the run cache and fuzzer matrix key on them).
 *
 * Contract shared by every predictor:
 *  - predict() is called once per fetched conditional branch and fills
 *    a BpredCheckpoint the core keeps with the in-flight branch.
 *  - updateSpeculative() shifts the *effective front-end direction*
 *    (which for a predicated-off wish branch can differ from the raw
 *    prediction) into the speculative histories immediately after
 *    predict().
 *  - train() is called in retirement order with the checkpoint taken
 *    at fetch; implementations must reconstruct fetch-time state from
 *    the checkpoint, never from current (younger-speculation) state.
 *  - recover() repairs speculative history from the checkpoint after a
 *    flush, shifting in the resolved branch's true outcome. After
 *    recover(), globalHistory() must equal what a non-speculative
 *    machine observing only resolved outcomes would hold (the zoo
 *    property test enforces this against an oracle).
 *
 * The 64-bit global history register is maintained by every predictor
 * — even bimodal, which does not use it to predict — because the core
 * also feeds it to the confidence estimator and the indirect target
 * cache.
 */

#ifndef WISC_UARCH_BPRED_IFACE_HH_
#define WISC_UARCH_BPRED_IFACE_HH_

#include <cstdint>
#include <memory>

#include "common/bytes.hh"
#include "common/stats.hh"
#include "uarch/params.hh"

namespace wisc {

/** Snapshot of speculative predictor state taken at each branch fetch,
 *  used to repair the predictor on a pipeline flush and to train
 *  against fetch-time (not retirement-time) state. */
struct BpredCheckpoint
{
    std::uint64_t globalHistory = 0;
    std::uint16_t localHistory = 0; ///< prior PAs history of this branch
    /** Fetch-time component predictions (hybrid). The McFarling
     *  selector must be trained against what each component actually
     *  predicted at fetch: by retirement, other branches have retrained
     *  the shared counters, so re-deriving the component predictions
     *  from them can train the selector on a prediction neither
     *  component made. */
    bool gshareTaken = false;
    bool pasTaken = false;
};

/** Direction-predictor interface (see the file comment for the
 *  predict/updateSpeculative/train/recover contract). */
class IBranchPredictor
{
  public:
    virtual ~IBranchPredictor() = default;

    /** Predict the conditional branch at 'pc' (instruction index),
     *  filling the checkpoint the caller must keep for recovery. */
    virtual bool predict(std::uint32_t pc, BpredCheckpoint &ckpt) = 0;

    /** Speculatively shift the effective direction into the histories. */
    virtual void updateSpeculative(std::uint32_t pc, bool predTaken) = 0;

    /** Train with the true outcome (retirement order). */
    virtual void train(std::uint32_t pc, bool taken,
                       const BpredCheckpoint &ckpt) = 0;

    /** Restore speculative history from a checkpoint after a flush; the
     *  resolved branch's true outcome is shifted in. */
    virtual void recover(std::uint32_t pc, bool actualTaken,
                         const BpredCheckpoint &ckpt) = 0;

    virtual std::uint64_t globalHistory() const = 0;

    /** Walk all value state — tables, histories, use clocks — for a
     *  warm-state checkpoint. Counter handles are never walked;
     *  statistics stay with whichever StatSet the owner runs under.
     *  Table geometry comes from SimParams: a restore checks it and
     *  never resizes. */
    virtual void io(StateIO &io) = 0;
};

/** Common global-history plumbing. Derived predictors that keep extra
 *  speculative state (the hybrid's per-address histories) override
 *  updateSpeculative()/recover() and call these from the override. */
class BranchPredictorBase : public IBranchPredictor
{
  public:
    void
    updateSpeculative(std::uint32_t, bool predTaken) override
    {
        hist_ = (hist_ << 1) | (predTaken ? 1 : 0);
    }

    void
    recover(std::uint32_t, bool actualTaken,
            const BpredCheckpoint &ckpt) override
    {
        hist_ = (ckpt.globalHistory << 1) | (actualTaken ? 1 : 0);
    }

    std::uint64_t globalHistory() const override { return hist_; }

  protected:
    std::uint64_t hist_ = 0;
};

/** Confidence-estimator interface: drives the wish-branch
 *  predicate/branch decision (§3.5.5). */
class IConfidence
{
  public:
    virtual ~IConfidence() = default;

    /** True = high confidence for the branch at 'pc' under 'hist'. */
    virtual bool estimate(std::uint32_t pc, std::uint64_t hist) const = 0;

    /** Train with the prediction outcome (call at retirement).
     *  Estimators that piggyback on predictor state ignore this. */
    virtual void update(std::uint32_t pc, std::uint64_t hist,
                        bool correct) = 0;

    /** Walk value state (see IBranchPredictor::io). Stateless
     *  estimators (TAGE piggyback) walk nothing. */
    virtual void io(StateIO &io) = 0;
};

/** Construct the direction predictor selected by params.predictor. */
std::unique_ptr<IBranchPredictor>
makeBranchPredictor(const SimParams &params, StatSet &stats);

/** Construct the confidence estimator selected by params.confKind.
 *  ConfKind::Tage reads the (live) predictor's provider state, so the
 *  predictor reference must outlive the estimator; it is a hard
 *  configuration error unless `bpred` is a TagePredictor. */
std::unique_ptr<IConfidence>
makeConfidenceEstimator(const SimParams &params, StatSet &stats,
                        const IBranchPredictor &bpred);

} // namespace wisc

#endif // WISC_UARCH_BPRED_IFACE_HH_
