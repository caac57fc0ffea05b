#include "uarch/updown_conf.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace wisc {

UpDownConfidenceEstimator::UpDownConfidenceEstimator(
    const SimParams &params, StatSet &stats)
    : entries_(params.udConfEntries),
      histBits_(params.udConfHistBits),
      max_(params.udConfMax),
      threshold_(params.udConfThreshold),
      downStep_(params.udConfDownStep)
{
    wisc_assert(isPow2(entries_), "up/down table must be a power of two");
    wisc_assert(threshold_ <= max_, "bad up/down threshold");
    ctrs_.assign(entries_, 0);
    queries_ = &stats.counter("conf.queries");
    highs_ = &stats.counter("conf.high_estimates");
}

std::size_t
UpDownConfidenceEstimator::index(std::uint32_t pc,
                                 std::uint64_t hist) const
{
    std::uint64_t h = hist & maskBits(histBits_);
    return (pc ^ (h * 0x9e3779b1u)) & (entries_ - 1);
}

bool
UpDownConfidenceEstimator::estimate(std::uint32_t pc,
                                    std::uint64_t hist) const
{
    ++*queries_;
    bool high = ctrs_[index(pc, hist)] >= threshold_;
    if (high)
        ++*highs_;
    return high;
}

void
UpDownConfidenceEstimator::update(std::uint32_t pc, std::uint64_t hist,
                                  bool correct)
{
    std::uint16_t &c = ctrs_[index(pc, hist)];
    if (correct) {
        if (c < max_)
            ++c;
    } else {
        c = c > downStep_ ? static_cast<std::uint16_t>(c - downStep_)
                          : 0;
    }
}

void
UpDownConfidenceEstimator::io(StateIO &io)
{
    io.table(ctrs_);
}

} // namespace wisc
