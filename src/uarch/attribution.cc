#include "uarch/attribution.hh"

#include "common/log.hh"

namespace wisc {

AttributionEngine::AttributionEngine(StatSet &stats, bool cpiStack,
                                     bool branchProfile)
    : stats_(stats), cpiStack_(cpiStack), branchProfile_(branchProfile)
{
}

AttributionEngine::Cause
AttributionEngine::flushCauseSlot(FlushCause c)
{
    switch (c) {
      case FlushCause::Normal:         return kFlushNormal;
      case FlushCause::WishHighConf:   return kFlushWishHigh;
      case FlushCause::WishLoopEarly:  return kFlushLoopEarly;
      case FlushCause::WishLoopNoExit: return kFlushLoopNoExit;
    }
    return kFlushNormal;
}

void
AttributionEngine::onRetire(const RetireProbe &p)
{
    ++retiredThisCycle_;
    if (p.predFalse)
        ++retiredNopsThisCycle_;

    // Post-redirect work reaching retirement ends the flush shadow.
    if (inFlushShadow_ && p.seq > shadowSeq_)
        inFlushShadow_ = false;

    if (branchProfile_ && p.isCondBr) {
        Profile &pr = profiles_[p.pc];
        ++pr.cols[kBpCount];
        if (p.mispredicted)
            ++pr.cols[kBpMispred];
        if (p.confValid) {
            // "Correct" here means the raw prediction the confidence
            // estimate judged — the quantity Figures 11/13 tabulate.
            std::size_t col =
                p.highConf ? (p.mispredicted ? kBpHiWrong : kBpHiCorrect)
                           : (p.mispredicted ? kBpLoWrong : kBpLoCorrect);
            ++pr.cols[col];
        }
    }
}

void
AttributionEngine::onFlush(const FlushProbe &p)
{
    // A younger flush supersedes an unresolved older one: by the time
    // the second flush fires, the first one's refill was consumed by
    // wrong-path work anyway.
    inFlushShadow_ = true;
    shadowCause_ = p.cause;
    shadowSeq_ = p.seq;
    shadowPc_ = p.pc;
}

void
AttributionEngine::onCycle(const CycleProbe &p)
{
    Cause cause;
    if (retiredThisCycle_ > 0) {
        // The machine did useful work this cycle unless everything it
        // retired was a predicated-FALSE NOP — or retirement ended the
        // cycle blocked on a predication-delayed head, in which case
        // the partial retire is the serialization showing through (the
        // probe fires after the retire stage, so the head is exactly
        // the µop that failed to retire).
        cause = retiredNopsThisCycle_ == retiredThisCycle_ ? kPredNop
                : p.headPredWait                           ? kPredWait
                                                           : kBase;
    } else if (inFlushShadow_) {
        cause = flushCauseSlot(shadowCause_);
        if (branchProfile_)
            ++profiles_[shadowPc_].cols[kBpFlushCycles];
    } else if (p.robEmpty) {
        cause = kFetchStall;
    } else if (p.headPredWait) {
        // Takes priority over a head-load miss: when the head is a
        // load whose issue was delayed by a predication dependence,
        // the dependence is what *exposed* the miss latency — with
        // NO-DEPEND the load issues early and the miss overlaps older
        // work. Charging it to the cache would hide exactly the
        // serialization Figure 2 measures.
        cause = kPredWait;
    } else if (p.headLoadMiss) {
        cause = kCacheMiss;
    } else if (p.renameBlocked) {
        cause = kRobIqFull;
    } else {
        cause = kBase; // head executing: plain computation latency
    }
    ++cycles_[cause];
    ++classified_;

    retiredThisCycle_ = 0;
    retiredNopsThisCycle_ = 0;
}

void
AttributionEngine::io(StateIO &io)
{
    io(inFlushShadow_, shadowCause_, shadowSeq_, shadowPc_);
}

void
AttributionEngine::finish(Cycle totalCycles)
{
    wisc_assert(classified_ == totalCycles,
                "attribution classified ", classified_, " cycles but the "
                "core ran ", totalCycles,
                " — a cycle escaped the CycleProbe");
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < kNumCauses; ++i)
        sum += cycles_[i];
    wisc_assert(sum == totalCycles,
                "CPI stack sums to ", sum, " cycles, core ran ",
                totalCycles, " — attribution is not a partition");

    if (cpiStack_) {
        static const char *const kName[kNumCauses] = {
            "attrib.base",
            "attrib.pred_nop",
            "attrib.pred_wait",
            "attrib.flush_normal",
            "attrib.flush_wish_high",
            "attrib.flush_loop_early",
            "attrib.flush_loop_noexit",
            "attrib.cache_miss",
            "attrib.fetch_stall",
            "attrib.rob_iq_full",
        };
        static const char *const kDesc[kNumCauses] = {
            "cycles retiring useful work or executing the ROB head",
            "cycles retiring only predicated-FALSE NOPs",
            "cycles retirement stopped on a predication-delayed head",
            "no-retire cycles: normal-branch flush shadow",
            "no-retire cycles: high-conf wish branch flush shadow",
            "no-retire cycles: wish-loop early-exit flush shadow",
            "no-retire cycles: wish-loop no-exit flush shadow",
            "no-retire cycles: head load missing in the D-cache",
            "no-retire cycles: ROB empty, front end refilling",
            "no-retire cycles: rename blocked on ROB/IQ capacity",
        };
        for (unsigned i = 0; i < kNumCauses; ++i)
            stats_.counter(kName[i], kDesc[i]) += cycles_[i];
    }

    if (branchProfile_) {
        StatTable &t = stats_.table(
            "core.branch_profile",
            {"count", "mispred", "hi_correct", "hi_wrong", "lo_correct",
             "lo_wrong", "flush_cycles"},
            "per-static-branch retire/confidence/flush profile");
        for (const auto &kv : profiles_) {
            auto &row = t.row(kv.first);
            for (std::size_t c = 0; c < kBpNumCols; ++c)
                row[c] += kv.second.cols[c];
        }
    }
}

} // namespace wisc
