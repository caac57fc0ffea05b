/**
 * @file
 * Factories mapping SimParams::predictor / SimParams::confKind to
 * concrete IBranchPredictor / IConfidence instances. Kept out of
 * core.cc so the core depends only on the interfaces.
 */

#include "uarch/bpred_iface.hh"

#include "common/log.hh"
#include "uarch/bpred.hh"
#include "uarch/confidence.hh"
#include "uarch/simple_bpred.hh"
#include "uarch/tage.hh"
#include "uarch/updown_conf.hh"

namespace wisc {

std::unique_ptr<IBranchPredictor>
makeBranchPredictor(const SimParams &params, StatSet &stats)
{
    switch (params.predictor) {
      case PredictorKind::Hybrid:
        return std::make_unique<HybridPredictor>(params);
      case PredictorKind::Bimodal:
        return std::make_unique<BimodalPredictor>(params);
      case PredictorKind::TwoLevel:
        return std::make_unique<TwoLevelPredictor>(params);
      case PredictorKind::Tage:
        return std::make_unique<TagePredictor>(params, stats);
    }
    wisc_panic("unknown PredictorKind");
}

std::unique_ptr<IConfidence>
makeConfidenceEstimator(const SimParams &params, StatSet &stats,
                        const IBranchPredictor &bpred)
{
    switch (params.confKind) {
      case ConfKind::Jrs:
        return std::make_unique<JrsConfidenceEstimator>(params, stats);
      case ConfKind::UpDown:
        return std::make_unique<UpDownConfidenceEstimator>(params,
                                                           stats);
      case ConfKind::Tage: {
        auto *tage = dynamic_cast<const TagePredictor *>(&bpred);
        if (!tage)
            wisc_fatal("ConfKind::Tage requires SimParams::predictor "
                       "== PredictorKind::Tage");
        return std::make_unique<TageConfidence>(*tage, stats);
      }
    }
    wisc_panic("unknown ConfKind");
}

} // namespace wisc
