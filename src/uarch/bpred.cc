#include "uarch/bpred.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace wisc {

HybridPredictor::HybridPredictor(const SimParams &params)
    : params_(params)
{
    wisc_assert(isPow2(params.gshareEntries) &&
                    isPow2(params.pasHistEntries) &&
                    isPow2(params.pasPatternEntries) &&
                    isPow2(params.selectorEntries),
                "predictor tables must be powers of two");
    gshare_.assign(params.gshareEntries, 2); // weakly taken
    pasHist_.assign(params.pasHistEntries, 0);
    pasPattern_.assign(params.pasPatternEntries, 2);
    selector_.assign(params.selectorEntries, 2); // weakly prefer gshare
}

std::size_t
HybridPredictor::gshareIndex(std::uint32_t pc, std::uint64_t hist) const
{
    return (pc ^ hist) & (gshare_.size() - 1);
}

std::size_t
HybridPredictor::pasHistIndex(std::uint32_t pc) const
{
    return pc & (pasHist_.size() - 1);
}

std::size_t
HybridPredictor::pasPatternIndex(std::uint32_t pc,
                                 std::uint16_t hist) const
{
    // Concatenate local history with low pc bits (PAs: per-address
    // history, shared pattern tables).
    std::size_t idx = (static_cast<std::size_t>(hist) << 6) ^ (pc * 7);
    return idx & (pasPattern_.size() - 1);
}

std::size_t
HybridPredictor::selectorIndex(std::uint32_t pc) const
{
    return pc & (selector_.size() - 1);
}

bool
HybridPredictor::predict(std::uint32_t pc, BpredCheckpoint &ckpt)
{
    ckpt.globalHistory = hist_;
    ckpt.localHistory = pasHist_[pasHistIndex(pc)];

    bool g = gshare_[gshareIndex(pc, hist_)] >= 2;
    bool l = pasPattern_[pasPatternIndex(pc, ckpt.localHistory)] >= 2;
    ckpt.gshareTaken = g;
    ckpt.pasTaken = l;
    bool useGshare = selector_[selectorIndex(pc)] >= 2;
    return useGshare ? g : l;
}

void
HybridPredictor::updateSpeculative(std::uint32_t pc, bool predTaken)
{
    BranchPredictorBase::updateSpeculative(pc, predTaken);
    std::uint16_t &lh = pasHist_[pasHistIndex(pc)];
    lh = static_cast<std::uint16_t>(
        ((lh << 1) | (predTaken ? 1 : 0)) & maskBits(params_.pasHistBits));
}

void
HybridPredictor::train(std::uint32_t pc, bool taken,
                       const BpredCheckpoint &ckpt)
{
    // Train both components against the state they predicted with. The
    // selector is judged on the fetch-time predictions recorded in the
    // checkpoint: retires of other branches aliasing the same counters
    // have mutated them since, so (g >= 2) here is not in general the
    // prediction gshare made for this branch.
    std::uint8_t &g = gshare_[gshareIndex(pc, ckpt.globalHistory)];
    std::uint8_t &l =
        pasPattern_[pasPatternIndex(pc, ckpt.localHistory)];
    bool gCorrect = ckpt.gshareTaken == taken;
    bool lCorrect = ckpt.pasTaken == taken;

    std::uint8_t &sel = selector_[selectorIndex(pc)];
    if (gCorrect && !lCorrect)
        satIncrement(sel, 2);
    else if (!gCorrect && lCorrect)
        satDecrement(sel);

    train2bit(g, taken);
    train2bit(l, taken);
}

void
HybridPredictor::recover(std::uint32_t pc, bool actualTaken,
                         const BpredCheckpoint &ckpt)
{
    BranchPredictorBase::recover(pc, actualTaken, ckpt);
    std::uint16_t &lh = pasHist_[pasHistIndex(pc)];
    lh = static_cast<std::uint16_t>(
        ((ckpt.localHistory << 1) | (actualTaken ? 1 : 0)) &
        maskBits(params_.pasHistBits));
}

Btb::Btb(const SimParams &params, StatSet &stats)
    : sets_(params.btbSets), ways_(params.btbWays)
{
    wisc_assert(isPow2(sets_), "BTB sets must be a power of two");
    entries_.assign(static_cast<std::size_t>(sets_) * ways_, BtbEntry{});
    hits_ = &stats.counter("bpred.btb.hits");
    misses_ = &stats.counter("bpred.btb.misses");
}

std::size_t
Btb::setOf(std::uint32_t pc) const
{
    return pc & (sets_ - 1);
}

const BtbEntry *
Btb::lookup(std::uint32_t pc)
{
    BtbEntry *base = &entries_[setOf(pc) * ways_];
    ++useClock_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].pc == pc) {
            base[w].lastUse = useClock_;
            ++*hits_;
            return &base[w];
        }
    }
    ++*misses_;
    return nullptr;
}

void
Btb::insert(std::uint32_t pc, std::uint32_t target, WishKind wish,
            bool isConditional)
{
    BtbEntry *base = &entries_[setOf(pc) * ways_];
    ++useClock_;
    BtbEntry *victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        BtbEntry &e = base[w];
        if (e.valid && e.pc == pc) {
            victim = &e;
            break;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->pc = pc;
    victim->target = target;
    victim->wish = wish;
    victim->isConditional = isConditional;
    victim->lastUse = useClock_;
}

ReturnAddressStack::ReturnAddressStack(unsigned entries)
    : stack_(entries, 0), tos_(entries - 1)
{
    wisc_assert(entries > 0, "RAS needs at least one entry");
}

void
ReturnAddressStack::push(std::uint32_t returnPc)
{
    // Circular: an overflowing push overwrites the oldest entry in
    // place (O(1), and — unlike a shift — slot indices stay stable, so
    // the checkpointed TOS index still names the right slot).
    tos_ = tos_ + 1 < stack_.size() ? tos_ + 1 : 0;
    stack_[tos_] = returnPc;
    if (count_ < stack_.size())
        ++count_;
}

std::uint32_t
ReturnAddressStack::pop()
{
    if (count_ == 0)
        return 0;
    std::uint32_t v = stack_[tos_];
    tos_ = tos_ > 0 ? tos_ - 1 : static_cast<unsigned>(stack_.size()) - 1;
    --count_;
    return v;
}

RasCheckpoint
ReturnAddressStack::checkpoint() const
{
    return {tos_, count_, stack_[tos_]};
}

void
ReturnAddressStack::restore(const RasCheckpoint &ckpt)
{
    tos_ = ckpt.tos;
    count_ = ckpt.count;
    // TOS-value repair: wrong-path pushes that wrapped the buffer may
    // have overwritten the checkpointed top slot.
    stack_[tos_] = ckpt.topValue;
}

IndirectTargetCache::IndirectTargetCache(unsigned entries,
                                         unsigned histBits)
    : histMask_(maskBits(histBits))
{
    wisc_assert(isPow2(entries), "indirect cache must be a power of two");
    targets_.assign(entries, 0);
}

std::size_t
IndirectTargetCache::index(std::uint32_t pc, std::uint64_t hist) const
{
    return (pc ^ ((hist & histMask_) * 0x9e3779b1u)) &
           (targets_.size() - 1);
}

std::uint32_t
IndirectTargetCache::predict(std::uint32_t pc, std::uint64_t hist) const
{
    return targets_[index(pc, hist)];
}

void
IndirectTargetCache::update(std::uint32_t pc, std::uint64_t hist,
                            std::uint32_t target)
{
    targets_[index(pc, hist)] = target;
}

// ---------------------------------------------------------------------
// Warm-state checkpointing
// ---------------------------------------------------------------------

void
HybridPredictor::io(StateIO &io)
{
    io(hist_);
    io.table(gshare_);
    io.table(pasHist_);
    io.table(pasPattern_);
    io.table(selector_);
}

void
Btb::io(StateIO &io)
{
    io(useClock_);
    io.table(entries_);
}

void
ReturnAddressStack::io(StateIO &io)
{
    io(tos_, count_);
    io.table(stack_);
}

void
IndirectTargetCache::io(StateIO &io)
{
    io.table(targets_);
}

} // namespace wisc
