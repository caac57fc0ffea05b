/**
 * @file
 * The cheap classic points of the predictor zoo: a Smith bimodal
 * predictor (per-PC 2-bit counters, no history) and a standalone GAs
 * two-level predictor (one global history register whose low bits are
 * concatenated with low PC bits to index a shared pattern table).
 * Both still maintain the 64-bit global history register via
 * BranchPredictorBase — the core feeds it to the confidence estimator
 * and the indirect target cache regardless of the direction predictor.
 */

#ifndef WISC_UARCH_SIMPLE_BPRED_HH_
#define WISC_UARCH_SIMPLE_BPRED_HH_

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/params.hh"

namespace wisc {

/** Smith bimodal: table of per-PC 2-bit saturating counters. */
class BimodalPredictor final : public BranchPredictorBase
{
  public:
    BimodalPredictor(const SimParams &params, StatSet &stats);

    bool predict(std::uint32_t pc, BpredCheckpoint &ckpt) override;
    void train(std::uint32_t pc, bool taken,
               const BpredCheckpoint &ckpt) override;

    void io(StateIO &io) override;

  private:
    std::vector<std::uint8_t> ctrs_;
};

/** GAs two-level: global history ++ low PC bits -> pattern table. */
class TwoLevelPredictor final : public BranchPredictorBase
{
  public:
    TwoLevelPredictor(const SimParams &params, StatSet &stats);

    bool predict(std::uint32_t pc, BpredCheckpoint &ckpt) override;
    void train(std::uint32_t pc, bool taken,
               const BpredCheckpoint &ckpt) override;

    void io(StateIO &io) override;

  private:
    std::size_t indexOf(std::uint32_t pc, std::uint64_t hist) const;

    unsigned histBits_;
    std::vector<std::uint8_t> ctrs_;
};

} // namespace wisc

#endif // WISC_UARCH_SIMPLE_BPRED_HH_
