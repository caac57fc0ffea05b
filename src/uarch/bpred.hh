/**
 * @file
 * The Table-2 branch prediction stack: a 64K-entry gshare and a PAs
 * two-level predictor combined by a 64K-entry selector (McFarling-style
 * hybrid), plus a 4K-entry 4-way BTB extended with wish-branch type bits
 * (§3.5.1), a 64-entry return address stack, and an indirect target
 * cache.
 *
 * The global history register is updated speculatively at fetch and
 * restored from per-branch checkpoints on a flush. Pattern tables and
 * the selector train at retirement.
 */

#ifndef WISC_UARCH_BPRED_HH_
#define WISC_UARCH_BPRED_HH_

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/isa.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/params.hh"

namespace wisc {

/** Direction predictor: gshare + PAs + selector. */
class HybridPredictor final : public BranchPredictorBase
{
  public:
    explicit HybridPredictor(const SimParams &params);

    /** Predict the branch at 'pc' (instruction index). Also returns the
     *  checkpoint the caller must keep for recovery. */
    bool predict(std::uint32_t pc, BpredCheckpoint &ckpt) override;

    /** Speculatively shift the predicted direction into the histories. */
    void updateSpeculative(std::uint32_t pc, bool predTaken) override;

    /** Train counters with the true outcome (at retirement). */
    void train(std::uint32_t pc, bool taken,
               const BpredCheckpoint &ckpt) override;

    /** Restore speculative history from a checkpoint after a flush; the
     *  resolved branch's true outcome is shifted in. */
    void recover(std::uint32_t pc, bool actualTaken,
                 const BpredCheckpoint &ckpt) override;

    void io(StateIO &io) override;

  private:
    std::size_t gshareIndex(std::uint32_t pc, std::uint64_t hist) const;
    std::size_t pasHistIndex(std::uint32_t pc) const;
    std::size_t pasPatternIndex(std::uint32_t pc,
                                std::uint16_t hist) const;
    std::size_t selectorIndex(std::uint32_t pc) const;

    SimParams params_;
    std::vector<std::uint8_t> gshare_;   ///< 2-bit counters
    std::vector<std::uint16_t> pasHist_; ///< per-address history regs
    std::vector<std::uint8_t> pasPattern_;
    std::vector<std::uint8_t> selector_; ///< 2-bit: >=2 prefers gshare
};

/** One BTB entry (with the §3.5.1 wish extension). */
struct BtbEntry
{
    bool valid = false;
    std::uint32_t pc = 0;
    std::uint32_t target = 0;
    WishKind wish = WishKind::None;
    bool isConditional = false;
    std::uint64_t lastUse = 0;
};

/** Branch target buffer, set-associative with LRU. */
class Btb
{
  public:
    Btb(const SimParams &params, StatSet &stats);

    const BtbEntry *lookup(std::uint32_t pc);
    void insert(std::uint32_t pc, std::uint32_t target, WishKind wish,
                bool isConditional);

    void io(StateIO &io);

  private:
    std::size_t setOf(std::uint32_t pc) const;

    unsigned sets_;
    unsigned ways_;
    std::vector<BtbEntry> entries_;
    std::uint64_t useClock_ = 0;
    Counter *hits_;
    Counter *misses_;
};

/** Per-branch RAS repair state: top-of-stack pointer plus the value it
 *  held at fetch (standard TOS-value repair). The value matters when a
 *  flush spans an overflow: wrap-around pushes overwrite the slot the
 *  checkpointed pointer still names, so restoring the index alone would
 *  silently restore a younger wrong-path return target. */
struct RasCheckpoint
{
    unsigned tos = 0;           ///< slot index of the top entry
    unsigned count = 0;         ///< number of valid entries
    std::uint32_t topValue = 0; ///< stack_[tos] at checkpoint time
};

/** Return address stack: circular buffer, overwrite-oldest on
 *  overflow, checkpointed with TOS-value repair. Entries deeper than
 *  the repaired top that were clobbered by a wrapping wrong-path push
 *  stay clobbered — exactly the compromise hardware RAS repair makes. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned entries);

    void push(std::uint32_t returnPc);
    std::uint32_t pop(); ///< returns 0 when empty

    RasCheckpoint checkpoint() const;
    void restore(const RasCheckpoint &ckpt);

    void io(StateIO &io);

  private:
    std::vector<std::uint32_t> stack_;
    unsigned tos_;       ///< slot of the top entry (valid if count_ > 0)
    unsigned count_ = 0; ///< number of valid entries
};

/** Tagless indirect target cache indexed by pc ^ (masked) global
 *  history. The history register itself is an unbounded shift
 *  register; the cache hashes only its low `histBits` bits, so the
 *  index function is a pure function of fingerprinted state. */
class IndirectTargetCache
{
  public:
    IndirectTargetCache(unsigned entries, unsigned histBits);

    std::uint32_t predict(std::uint32_t pc, std::uint64_t hist) const;
    void update(std::uint32_t pc, std::uint64_t hist,
                std::uint32_t target);

    void io(StateIO &io);

  private:
    std::size_t index(std::uint32_t pc, std::uint64_t hist) const;
    std::vector<std::uint32_t> targets_;
    std::uint64_t histMask_;
};

} // namespace wisc

#endif // WISC_UARCH_BPRED_HH_
