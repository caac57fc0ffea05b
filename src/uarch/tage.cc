#include "uarch/tage.hh"

#include <cmath>

#include "common/bitutil.hh"
#include "common/hash.hh"
#include "common/log.hh"

namespace wisc {

namespace {

/** 3-bit saturating direction counter update. */
void
train3bit(std::uint8_t &ctr, bool taken)
{
    if (taken)
        satIncrement(ctr, 3);
    else
        satDecrement(ctr);
}

} // namespace

TagePredictor::TagePredictor(const SimParams &params, StatSet &stats)
    : numTables_(params.tageTables),
      entriesLog2_(params.tageEntriesLog2),
      tagBits_(params.tageTagBits),
      uBits_(params.tageUsefulBits),
      resetMask_(params.tageResetPeriod - 1)
{
    wisc_assert(numTables_ >= 1, "TAGE needs at least one tagged table");
    wisc_assert(params.tageMaxHist <= 64,
                "TAGE history is capped at the 64-bit checkpoint word");
    wisc_assert(params.tageMinHist >= 1 &&
                    params.tageMinHist <= params.tageMaxHist,
                "TAGE history lengths must satisfy 1 <= min <= max");
    wisc_assert(isPow2(params.tageResetPeriod),
                "tageResetPeriod must be a power of two");
    wisc_assert(tagBits_ >= 1 && tagBits_ <= 16,
                "TAGE tags are stored in 16 bits");

    // Geometric history series L(t) = minHist * (maxHist/minHist)^(t/(N-1)),
    // rounded and forced strictly increasing.
    histLen_.resize(numTables_);
    for (unsigned t = 0; t < numTables_; ++t) {
        double frac = numTables_ > 1
                          ? static_cast<double>(t) / (numTables_ - 1)
                          : 1.0;
        double len = params.tageMinHist *
                     std::pow(static_cast<double>(params.tageMaxHist) /
                                  params.tageMinHist,
                              frac);
        unsigned l = static_cast<unsigned>(std::lround(len));
        if (t > 0 && l <= histLen_[t - 1])
            l = histLen_[t - 1] + 1;
        histLen_[t] = l < 64 ? l : 64;
    }

    tables_.assign(numTables_,
                   std::vector<Entry>(1ull << entriesLog2_));
    base_.assign(1ull << params.tageBaseEntriesLog2, 2); // weakly taken

    providerHits_ = &stats.counter("bpred.tage.provider_hits",
                                   "predictions served by a tagged table");
    altOverrides_ = &stats.counter(
        "bpred.tage.alt_overrides",
        "unproven weak provider overridden by the alternate");
    allocs_ = &stats.counter("bpred.tage.allocs",
                             "tagged entries allocated on mispredicts");
    allocFails_ = &stats.counter(
        "bpred.tage.alloc_fails",
        "allocation attempts that only aged usefulness counters");
}

std::uint64_t
TagePredictor::hashOf(unsigned t, std::uint32_t pc,
                      std::uint64_t hist) const
{
    // One well-mixed 64-bit word per (table, pc, history-slice); the
    // index and tag are disjoint bit ranges of it.
    std::uint64_t h = hist & maskBits(histLen_[t]);
    return Hasher::mix(h + 0x9e3779b97f4a7c15ull * (t + 1)) ^
           Hasher::mix(pc ^ (static_cast<std::uint64_t>(t + 1) << 40));
}

std::size_t
TagePredictor::indexOf(unsigned t, std::uint32_t pc,
                       std::uint64_t hist) const
{
    return hashOf(t, pc, hist) & maskBits(entriesLog2_);
}

std::uint16_t
TagePredictor::tagOf(unsigned t, std::uint32_t pc,
                     std::uint64_t hist) const
{
    // Tags come from bits above the index so tag and index are
    // decorrelated; tag 0 is reserved-free (entries carry a valid bit).
    return static_cast<std::uint16_t>(
        (hashOf(t, pc, hist) >> entriesLog2_) & maskBits(tagBits_));
}

std::size_t
TagePredictor::baseIndex(std::uint32_t pc) const
{
    return pc & (base_.size() - 1);
}

TagePredictor::Entry &
TagePredictor::at(unsigned t, std::uint32_t pc, std::uint64_t hist)
{
    return tables_[t][indexOf(t, pc, hist)];
}

TagePredictor::Lookup
TagePredictor::lookup(std::uint32_t pc, std::uint64_t hist) const
{
    Lookup r;
    bool basePred = base_[baseIndex(pc)] >= 2;
    r.altTaken = basePred;

    for (int t = static_cast<int>(numTables_) - 1; t >= 0; --t) {
        const Entry &e = tables_[t][indexOf(t, pc, hist)];
        if (!e.valid || e.tag != tagOf(t, pc, hist))
            continue;
        if (r.provider < 0) {
            r.provider = t;
            r.providerTaken = e.ctr >= 4;
            r.providerCtr = e.ctr;
            r.providerU = e.u;
            r.weak = e.ctr == 3 || e.ctr == 4;
        } else {
            r.alt = t;
            r.altTaken = e.ctr >= 4;
            break;
        }
    }

    if (r.provider < 0) {
        r.taken = basePred;
    } else if (r.weak && r.providerU == 0) {
        // Newly allocated (unproven) entries start weak with u == 0;
        // trust the alternate until the provider proves itself
        // ("use alt on newly allocated", simplified).
        r.taken = r.altTaken;
    } else {
        r.taken = r.providerTaken;
    }
    return r;
}

bool
TagePredictor::predict(std::uint32_t pc, BpredCheckpoint &ckpt)
{
    ckpt.globalHistory = hist_;
    Lookup r = lookup(pc, hist_);
    if (r.provider >= 0) {
        ++*providerHits_;
        if (r.taken != r.providerTaken)
            ++*altOverrides_;
    }
    return r.taken;
}

bool
TagePredictor::confident(std::uint32_t pc, std::uint64_t hist) const
{
    Lookup r = lookup(pc, hist);
    if (r.provider >= 0)
        return (r.providerCtr <= 1 || r.providerCtr >= 6) &&
               !(r.weak && r.providerU == 0);
    std::uint8_t b = base_[baseIndex(pc)];
    return b == 0 || b == 3;
}

void
TagePredictor::train(std::uint32_t pc, bool taken,
                     const BpredCheckpoint &ckpt)
{
    // Reconstruct the fetch-time table walk from the checkpointed
    // history (the live hist_ has younger speculative bits).
    const std::uint64_t hist = ckpt.globalHistory;
    Lookup r = lookup(pc, hist);

    // Usefulness: the provider earns credit only where it disagreed
    // with the alternate and was right (agreement teaches nothing
    // about which entry deserves to stay).
    if (r.provider >= 0 && r.providerTaken != r.altTaken) {
        Entry &p = at(r.provider, pc, hist);
        if (r.providerTaken == taken)
            satIncrement(p.u, uBits_);
        else
            satDecrement(p.u);
    }

    // Direction counters.
    if (r.provider >= 0) {
        train3bit(at(r.provider, pc, hist).ctr, taken);
        // While the provider is unproven the alternate made the actual
        // prediction — keep training it too.
        if (r.weak && r.providerU == 0) {
            if (r.alt >= 0)
                train3bit(at(r.alt, pc, hist).ctr, taken);
            else
                train2bit(base_[baseIndex(pc)], taken);
        }
    } else {
        train2bit(base_[baseIndex(pc)], taken);
    }

    // Allocate a longer-history entry on a misprediction of the final
    // prediction. First u == 0 victim wins (deterministic); with no
    // victim, age every candidate so the next mispredict finds one.
    if (r.taken != taken &&
        r.provider < static_cast<int>(numTables_) - 1) {
        int victim = -1;
        for (unsigned t = r.provider + 1; t < numTables_; ++t) {
            if (at(t, pc, hist).u == 0) {
                victim = static_cast<int>(t);
                break;
            }
        }
        if (victim >= 0) {
            Entry &e = at(victim, pc, hist);
            e.valid = true;
            e.tag = tagOf(victim, pc, hist);
            e.ctr = taken ? 4 : 3; // weak, agreeing with the outcome
            e.u = 0;
            ++*allocs_;
        } else {
            for (unsigned t = r.provider + 1; t < numTables_; ++t)
                satDecrement(at(t, pc, hist).u);
            ++*allocFails_;
        }
    }

    // Graceful aging: halve every usefulness counter periodically so
    // dead entries eventually become allocation victims.
    if ((++trains_ & resetMask_) == 0)
        for (auto &table : tables_)
            for (Entry &e : table)
                e.u >>= 1;
}

TageConfidence::TageConfidence(const TagePredictor &pred, StatSet &stats)
    : pred_(pred)
{
    queries_ = &stats.counter("conf.queries");
    highs_ = &stats.counter("conf.high_estimates");
}

bool
TageConfidence::estimate(std::uint32_t pc, std::uint64_t hist) const
{
    ++*queries_;
    bool high = pred_.confident(pc, hist);
    if (high)
        ++*highs_;
    return high;
}

void
TagePredictor::io(StateIO &io)
{
    io(hist_, trains_);
    io.table(base_);
    for (auto &t : tables_)
        io.table(t);
}

} // namespace wisc
