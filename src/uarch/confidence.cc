#include "uarch/confidence.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace wisc {

JrsConfidenceEstimator::JrsConfidenceEstimator(const SimParams &params,
                                               StatSet &stats)
    : sets_(params.confSets),
      ways_(params.confWays),
      histBits_(params.confHistBits),
      ctrMax_(static_cast<unsigned>(maskBits(params.confCtrBits))),
      threshold_(params.confThreshold),
      tagBits_(params.confTagBits),
      missIsHigh_(params.confMissIsHigh)
{
    wisc_assert(isPow2(sets_), "confidence sets must be a power of two");
    wisc_assert(threshold_ <= ctrMax_,
                "confidence threshold exceeds counter range");
    entries_.assign(static_cast<std::size_t>(sets_) * ways_, Entry{});
    queries_ = &stats.counter("conf.queries");
    highs_ = &stats.counter("conf.high_estimates");
}

std::size_t
JrsConfidenceEstimator::setOf(std::uint32_t pc, std::uint64_t hist) const
{
    std::uint64_t h = hist & maskBits(histBits_);
    return (pc ^ h) & (sets_ - 1);
}

std::uint16_t
JrsConfidenceEstimator::tagOf(std::uint32_t pc, std::uint64_t hist) const
{
    std::uint64_t h = hist & maskBits(histBits_);
    return static_cast<std::uint16_t>(mixHash(pc ^ (h << 20)) &
                                      maskBits(tagBits_));
}

bool
JrsConfidenceEstimator::estimate(std::uint32_t pc,
                                 std::uint64_t hist) const
{
    ++*queries_;
    const Entry *base = &entries_[setOf(pc, hist) * ways_];
    std::uint16_t tag = tagOf(pc, hist);
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            bool high = base[w].ctr >= threshold_;
            if (high)
                ++*highs_;
            return high;
        }
    }
    if (missIsHigh_)
        ++*highs_;
    return missIsHigh_;
}

void
JrsConfidenceEstimator::update(std::uint32_t pc, std::uint64_t hist,
                               bool correct)
{
    Entry *base = &entries_[setOf(pc, hist) * ways_];
    std::uint16_t tag = tagOf(pc, hist);
    ++useClock_;

    Entry *victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == tag) {
            if (correct)
                satIncrement(e.ctr, 8); // saturate at ctrMax_ below
            else
                e.ctr = 0;
            if (e.ctr > ctrMax_)
                e.ctr = static_cast<std::uint8_t>(ctrMax_);
            e.lastUse = useClock_;
            return;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    // Optimistic policy: only a misprediction allocates an entry, so
    // stably-predicted branches keep their high-confidence default and
    // the table holds only the troublemakers.
    if (missIsHigh_ && correct)
        return;
    victim->valid = true;
    victim->tag = tag;
    victim->ctr = correct ? 1 : 0;
    victim->lastUse = useClock_;
}

void
JrsConfidenceEstimator::io(StateIO &io)
{
    io(useClock_);
    io.table(entries_);
}

} // namespace wisc
