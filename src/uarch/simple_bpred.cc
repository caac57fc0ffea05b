#include "uarch/simple_bpred.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace wisc {

namespace {

void
train2bit(std::uint8_t &ctr, bool taken)
{
    if (taken)
        satIncrement(ctr, 2);
    else
        satDecrement(ctr);
}

} // namespace

BimodalPredictor::BimodalPredictor(const SimParams &params,
                                   StatSet &stats)
{
    wisc_assert(isPow2(params.bimodalEntries),
                "bimodal table must be a power of two");
    ctrs_.assign(params.bimodalEntries, 2); // weakly taken
    (void)stats;
}

bool
BimodalPredictor::predict(std::uint32_t pc, BpredCheckpoint &ckpt)
{
    ckpt.globalHistory = hist_;
    return ctrs_[pc & (ctrs_.size() - 1)] >= 2;
}

void
BimodalPredictor::train(std::uint32_t pc, bool taken,
                        const BpredCheckpoint &)
{
    train2bit(ctrs_[pc & (ctrs_.size() - 1)], taken);
}

TwoLevelPredictor::TwoLevelPredictor(const SimParams &params,
                                     StatSet &stats)
    : histBits_(params.twoLevelHistBits)
{
    wisc_assert(isPow2(params.twoLevelEntries),
                "two-level pattern table must be a power of two");
    wisc_assert(histBits_ <= log2i(params.twoLevelEntries),
                "two-level history must fit in the pattern-table index");
    ctrs_.assign(params.twoLevelEntries, 2); // weakly taken
    (void)stats;
}

std::size_t
TwoLevelPredictor::indexOf(std::uint32_t pc, std::uint64_t hist) const
{
    std::size_t idx = ((hist & maskBits(histBits_)) <<
                       (log2i(ctrs_.size()) - histBits_)) |
                      (pc & maskBits(log2i(ctrs_.size()) - histBits_));
    return idx & (ctrs_.size() - 1);
}

bool
TwoLevelPredictor::predict(std::uint32_t pc, BpredCheckpoint &ckpt)
{
    ckpt.globalHistory = hist_;
    return ctrs_[indexOf(pc, hist_)] >= 2;
}

void
TwoLevelPredictor::train(std::uint32_t pc, bool taken,
                         const BpredCheckpoint &ckpt)
{
    // Train the entry the fetch-time history selected, not whatever
    // the (younger) speculative history now points at.
    train2bit(ctrs_[indexOf(pc, ckpt.globalHistory)], taken);
}

void
BimodalPredictor::io(StateIO &io)
{
    io(hist_);
    io.table(ctrs_);
}

void
TwoLevelPredictor::io(StateIO &io)
{
    io(hist_);
    io.table(ctrs_);
}

} // namespace wisc
