/**
 * @file
 * Hardware merge-point predictor for dynamic predication.
 *
 * A direct-mapped, tagged table of static conditional branches that
 * learns each branch's control-flow reconvergence (merge) point from
 * the *retired* instruction stream, in the spirit of dynamic merge
 * point prediction (Pruett & Patt) / diverge-merge processors. The
 * core consults it when a normal (compiler-unmarked) conditional
 * branch gets a low-confidence estimate: if the table has a confident
 * merge-point prediction, the frontend predicates the hammock on the
 * fly instead of gambling on the predictor (SimParams::dynPred ==
 * DynPredMode::MergePoint).
 *
 * Learning walks the retired stream with a single tracking slot: when
 * a forward conditional branch retires, its taken target becomes the
 * initial merge estimate (the end of the not-taken block — exact for
 * if-then, a first guess for if-then-else). While tracking, retiring
 * *at* the estimate confirms it; retiring a forward jump *past* the
 * estimate (the then-block's jump over the else-block) moves the
 * estimate to that jump's target; leaving the region backwards or
 * running out of the tracking budget abandons the sample. This learns
 * if-then, if-then-else, and nested-hammock shapes with one 32-bit
 * comparator, and mislearned entries are killed by the usefulness
 * counter trained from dynamic-predication outcomes.
 */

#ifndef WISC_UARCH_MERGEPOINT_HH_
#define WISC_UARCH_MERGEPOINT_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hh"

namespace wisc {

class MergePointTable
{
  public:
    /** 'entries' is rounded up to a power of two; 'trackUops' bounds
     *  the retired-µop window a merge estimate may span. */
    MergePointTable(unsigned entries, unsigned trackUops);

    /** Confident merge-point prediction for the static branch at 'pc',
     *  or nullopt when unknown / not yet confirmed enough times /
     *  trained useless. 'minConf' is SimParams::dynMergeMinConf. */
    std::optional<std::uint32_t> predict(std::uint32_t pc,
                                         unsigned minConf) const;

    /**
     * Feed one retired instruction. 'pc' is its index, 'nextPc' the
     * retired-stream successor (the *actual* next retired pc),
     * 'isCondBr' whether it is a conditional branch and 'takenTarget'
     * that branch's taken target. The core must skip µops fetched
     * inside a dynamically predicated region: their retired pc stream
     * is linear regardless of the real control flow and would poison
     * the merge estimates.
     */
    void onRetire(std::uint32_t pc, std::uint32_t nextPc, bool isCondBr,
                  std::uint32_t takenTarget);

    /**
     * Outcome feedback for a dynamic-predication trigger at 'pc'.
     * 'failed' means real control flow never reached the predicted
     * merge point (region wasted, pipeline flushed); 'mispredicted'
     * whether the branch predictor got the trigger branch wrong (i.e.
     * predication would have saved a flush).
     */
    void noteOutcome(std::uint32_t pc, bool failed, bool mispredicted);

    /** Walk the full table + tracking slot (checkpointing). */
    void io(StateIO &io);

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t pc = 0;      ///< full-tag static branch index
        std::uint32_t merge = 0;   ///< predicted reconvergence index
        std::uint32_t conf = 0;    ///< consecutive confirmations
        std::int8_t useful = 0;    ///< outcome-trained usefulness
    };

    Entry &entryFor(std::uint32_t pc);
    const Entry &entryFor(std::uint32_t pc) const;

    std::vector<Entry> table_;
    std::uint32_t mask_;
    unsigned trackUops_;

    /** Single-slot retired-stream tracker. */
    bool tracking_ = false;
    std::uint32_t trackPc_ = 0;   ///< branch being tracked
    std::uint32_t uopsLeft_ = 0;  ///< tracking budget remaining
};

} // namespace wisc

#endif // WISC_UARCH_MERGEPOINT_HH_
