/**
 * @file
 * TAGE direction predictor (Seznec & Michaud, "A case for (partially)
 * TAgged GEometric history length branch predictors", JILP 2006),
 * scaled to the zoo's needs: a bimodal base table T0 plus N tagged
 * tables T1..TN indexed by hashes of geometrically growing slices of
 * the global history. The hitting table with the longest history is
 * the *provider*; the next hit (or the base table) is the *alternate*.
 * Each tagged entry carries a 3-bit direction counter, a partial tag,
 * and a usefulness counter that arbitrates victim selection when a
 * misprediction allocates into a longer table.
 *
 * Deliberate simplifications relative to the championship versions
 * (documented in DESIGN.md): history slices are hashed whole through
 * the splitmix64 finalizer instead of folded shift registers (same
 * mixing quality, no extra speculative state to checkpoint — histories
 * are capped at 64 bits so the per-branch checkpoint stays one word),
 * allocation picks the first u==0 candidate deterministically instead
 * of pseudo-randomly, and usefulness counters age by halving every
 * tageResetPeriod trains.
 *
 * The provider state doubles as a free confidence estimator
 * (TageConfidence): a saturated provider counter on a proven entry is
 * "high confidence", which the wish-branch machinery pits against the
 * JRS and up/down estimators.
 */

#ifndef WISC_UARCH_TAGE_HH_
#define WISC_UARCH_TAGE_HH_

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/params.hh"

namespace wisc {

class TagePredictor final : public BranchPredictorBase
{
  public:
    TagePredictor(const SimParams &params, StatSet &stats);

    bool predict(std::uint32_t pc, BpredCheckpoint &ckpt) override;
    void train(std::uint32_t pc, bool taken,
               const BpredCheckpoint &ckpt) override;

    /** Result of one table walk (exposed for tests/confidence). */
    struct Lookup
    {
        int provider = -1; ///< tagged table of the provider; -1 = base
        int alt = -1;      ///< next-longest hit; -1 = base
        bool providerTaken = false;
        bool altTaken = false;
        bool taken = false; ///< final prediction
        bool weak = false;  ///< provider counter at a weak value
        std::uint8_t providerCtr = 0;
        std::uint8_t providerU = 0;
    };

    /** Pure table walk against an explicit history (predict() uses the
     *  live speculative history, train() the checkpointed one). */
    Lookup lookup(std::uint32_t pc, std::uint64_t hist) const;

    /** Free confidence signal: a provider hit with a saturated-ish
     *  counter on a proven (u > 0 or non-weak) entry, or a saturated
     *  base-table counter when no tagged table hits. */
    bool confident(std::uint32_t pc, std::uint64_t hist) const;

    /** History length of tagged table t (geometric; for tests/docs). */
    unsigned historyLength(unsigned t) const { return histLen_[t]; }

    void io(StateIO &io) override;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        std::uint8_t ctr = 0; ///< 3-bit direction, taken if >= 4
        std::uint8_t u = 0;   ///< usefulness
    };

    std::uint64_t hashOf(unsigned t, std::uint32_t pc,
                         std::uint64_t hist) const;
    std::size_t indexOf(unsigned t, std::uint32_t pc,
                        std::uint64_t hist) const;
    std::uint16_t tagOf(unsigned t, std::uint32_t pc,
                        std::uint64_t hist) const;
    std::size_t baseIndex(std::uint32_t pc) const;
    Entry &at(unsigned t, std::uint32_t pc, std::uint64_t hist);

    unsigned numTables_;
    unsigned entriesLog2_;
    unsigned tagBits_;
    unsigned uBits_;
    std::uint64_t resetMask_; ///< tageResetPeriod - 1 (period is pow2)
    std::vector<unsigned> histLen_;
    std::vector<std::vector<Entry>> tables_;
    std::vector<std::uint8_t> base_; ///< 2-bit counters
    std::uint64_t trains_ = 0;

    Counter *providerHits_;
    Counter *altOverrides_;
    Counter *allocs_;
    Counter *allocFails_;
};

/** IConfidence adapter over the TAGE provider state. Estimation is
 *  free (no dedicated table); update() is a no-op because the
 *  predictor's own training maintains the state. Registers the same
 *  conf.queries / conf.high_estimates counters as the JRS and up/down
 *  estimators, so downstream readers are estimator-agnostic. */
class TageConfidence final : public IConfidence
{
  public:
    TageConfidence(const TagePredictor &pred, StatSet &stats);

    bool estimate(std::uint32_t pc, std::uint64_t hist) const override;
    void update(std::uint32_t, std::uint64_t, bool) override {}

    /** All state lives in the predictor; nothing to checkpoint. */
    void io(StateIO &) override {}

  private:
    const TagePredictor &pred_;
    Counter *queries_;
    Counter *highs_;
};

} // namespace wisc

#endif // WISC_UARCH_TAGE_HH_
