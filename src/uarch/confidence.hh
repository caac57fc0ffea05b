/**
 * @file
 * The JRS confidence estimator (Jacobsen, Rotenberg & Smith, MICRO-29),
 * as configured in Table 2: a 1 KB, tagged, 4-way table of miss distance
 * counters indexed by (pc ^ global branch history). The default history
 * is 8 bits, not Table 2's 16 (DESIGN.md §5 item 1).
 *
 * A prediction is high-confidence when the entry's saturating counter
 * has reached the threshold: the counter increments on each correct
 * prediction and resets to zero on a misprediction, so "high confidence"
 * means at least `threshold` consecutive correct predictions in this
 * (pc, history) context. A lookup miss is low confidence (the estimator
 * is dedicated to wish branches, §3.5.5, so cold entries are rare and
 * conservative predication is the safe default).
 */

#ifndef WISC_UARCH_CONFIDENCE_HH_
#define WISC_UARCH_CONFIDENCE_HH_

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/params.hh"

namespace wisc {

class JrsConfidenceEstimator final : public IConfidence
{
  public:
    JrsConfidenceEstimator(const SimParams &params, StatSet &stats);

    /** True = high confidence for the branch at 'pc' under 'hist'. */
    bool estimate(std::uint32_t pc, std::uint64_t hist) const override;

    /** Train with the prediction outcome (call at retirement). */
    void update(std::uint32_t pc, std::uint64_t hist,
                bool correct) override;

    void io(StateIO &io) override;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        std::uint8_t ctr = 0;
        std::uint64_t lastUse = 0;
    };

    std::size_t setOf(std::uint32_t pc, std::uint64_t hist) const;
    std::uint16_t tagOf(std::uint32_t pc, std::uint64_t hist) const;

    unsigned sets_;
    unsigned ways_;
    unsigned histBits_;
    unsigned ctrMax_;
    unsigned threshold_;
    unsigned tagBits_;
    bool missIsHigh_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;

    Counter *queries_;
    Counter *highs_;
};

} // namespace wisc

#endif // WISC_UARCH_CONFIDENCE_HH_
