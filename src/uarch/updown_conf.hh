/**
 * @file
 * An alternative confidence estimator (the paper's §7 calls for "more
 * accurate confidence estimation mechanisms"): an untagged per-PC table
 * of asymmetric up/down counters. Each correct prediction adds 1, each
 * misprediction subtracts `downStep` (saturating at 0); confidence is
 * high above a threshold. Unlike the streak-based JRS miss distance
 * counter, the up/down counter estimates the *rate* of mispredictions,
 * so a branch that mispredicts rarely but regularly (say 3%) can still
 * reach high confidence — which is exactly the mcf case where JRS's
 * streak reset is too pessimistic.
 */

#ifndef WISC_UARCH_UPDOWN_CONF_HH_
#define WISC_UARCH_UPDOWN_CONF_HH_

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/params.hh"

namespace wisc {

class UpDownConfidenceEstimator final : public IConfidence
{
  public:
    UpDownConfidenceEstimator(const SimParams &params, StatSet &stats);

    bool estimate(std::uint32_t pc, std::uint64_t hist) const override;
    void update(std::uint32_t pc, std::uint64_t hist,
                bool correct) override;

    void io(StateIO &io) override;

  private:
    std::size_t index(std::uint32_t pc, std::uint64_t hist) const;

    unsigned entries_;
    unsigned histBits_;
    unsigned max_;
    unsigned threshold_;
    unsigned downStep_;
    std::vector<std::uint16_t> ctrs_;

    Counter *queries_;
    Counter *highs_;
};

} // namespace wisc

#endif // WISC_UARCH_UPDOWN_CONF_HH_
