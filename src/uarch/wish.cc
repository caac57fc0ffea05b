#include "uarch/wish.hh"

#include "common/log.hh"

namespace wisc {

WishEngine::WishEngine(StatSet &stats, bool loopBias)
    : loopBias_(loopBias)
{
    predBuffer_.fill(-1);
    complementOf_.fill(kPredNone);
    lowEntries_ = &stats.counter("wish.low_conf_entries",
                                 "times the front end entered "
                                 "low-confidence-mode");
    highEntries_ = &stats.counter("wish.high_conf_entries",
                                  "times the front end entered "
                                  "high-confidence-mode");
    biasOverrides_ = &stats.counter("wish.loop_bias_overrides",
                                    "loop predictions forced taken by "
                                    "the overestimating predictor");
}

void
WishEngine::io(StateIO &io)
{
    io(mode_, lowConfFromLoop_, pendingTarget_);
    for (std::int8_t &v : predBuffer_)
        io(v);
    for (PredIdx &p : complementOf_)
        io(p);
    io.map(loopTrips_, [&](std::uint32_t &pc, LoopTripState &t) {
        io(pc, t.fetchIter, t.ewmaTrip4, t.recordedThisInstance,
           t.instance);
    });
}

void
WishEngine::enterLowConf(WishKind kind, std::uint32_t pendingTarget)
{
    mode_ = FrontEndMode::LowConf;
    lowConfFromLoop_ = (kind == WishKind::Loop);
    pendingTarget_ = pendingTarget;
    ++*lowEntries_;
}

void
WishEngine::armPredicateBuffer(PredIdx srcPred, bool value)
{
    if (srcPred == 0)
        return;
    predBuffer_[srcPred] = value ? 1 : 0;
    PredIdx comp = complementOf_[srcPred];
    if (comp != kPredNone)
        predBuffer_[comp] = value ? 0 : 1;
}

WishDecision
WishEngine::onWishBranch(std::uint32_t pc, WishKind kind, PredIdx qp,
                         bool predictorTaken, bool highConf,
                         std::uint32_t takenTarget)
{
    WishDecision d;
    d.highConfidence = highConf;

    if (kind == WishKind::Loop) {
        // Wish loops are always predicted by the loop/branch predictor;
        // the mode only controls whether the predicate is predicted and
        // how a misprediction recovers (§3.2).
        //
        // When the prediction is low-confidence, the specialized loop
        // predictor of §3.2 biases it to *overestimate* the trip count:
        // keep predicting taken until the decaying maximum observed trip
        // is reached. Overshooting turns would-be early exits (pipeline
        // flushes) into late exits (predicated NOPs, no flush).
        LoopTripState &lt = loopTrips_[pc];
        ++lt.fetchIter;
        // Keep predicting taken until slightly past the running average
        // trip count: a small overshoot converts early exits (flush)
        // into late exits (cheap predicated NOPs) without fetching long
        // junk tails when the trip distribution is skewed.
        const std::uint32_t target = lt.ewmaTrip4 / 4 + 2;
        if (!predictorTaken) {
            // Learn from the hybrid's *first* natural exit this
            // instance; recording suppressed re-exits would feed the
            // overshoot back into the average and make it creep.
            if (!lt.recordedThisInstance) {
                lt.ewmaTrip4 += lt.fetchIter - lt.ewmaTrip4 / 4;
                lt.recordedThisInstance = true;
            }
            if (loopBias_ && !highConf &&
                mode_ != FrontEndMode::HighConf &&
                lt.fetchIter < target) {
                predictorTaken = true;
                ++*biasOverrides_;
            } else {
                lt.fetchIter = 0;
                lt.recordedThisInstance = false;
            }
        }
        if (!predictorTaken)
            ++lt.instance; // front end exits this loop instance
        if (mode_ == FrontEndMode::LowConf) {
            // Stay in low-confidence-mode until the loop is exited.
            d.effectiveTaken = predictorTaken;
            d.branchMode = FrontEndMode::LowConf;
            if (!predictorTaken && lowConfFromLoop_)
                mode_ = FrontEndMode::Normal; // loop exited by front end
            return d;
        }
        if (highConf) {
            mode_ = FrontEndMode::HighConf;
            lowConfFromLoop_ = true; // exit on loop exit
            ++*highEntries_;
            d.effectiveTaken = predictorTaken;
            d.branchMode = FrontEndMode::HighConf;
            // Predicate predicted: TRUE when the loop is predicted to
            // iterate again.
            armPredicateBuffer(qp, predictorTaken);
            if (!predictorTaken)
                mode_ = FrontEndMode::Normal; // immediately exited
            return d;
        }
        enterLowConf(kind, 0xffffffff);
        d.effectiveTaken = predictorTaken;
        d.branchMode = FrontEndMode::LowConf;
        if (!predictorTaken)
            mode_ = FrontEndMode::Normal;
        return d;
    }

    // Wish jumps and joins.
    if (mode_ == FrontEndMode::LowConf) {
        // Table 1: every wish join after a low-confidence estimation is
        // predicted not-taken.
        d.effectiveTaken = false;
        d.branchMode = FrontEndMode::LowConf;
        return d;
    }

    if (highConf) {
        mode_ = FrontEndMode::HighConf;
        lowConfFromLoop_ = false;
        pendingTarget_ = takenTarget;
        ++*highEntries_;
        d.effectiveTaken = predictorTaken;
        d.branchMode = FrontEndMode::HighConf;
        // §3.5.3: predict the branch's source predicate so predicated
        // instructions need not wait for it.
        armPredicateBuffer(qp, predictorTaken);
        return d;
    }

    enterLowConf(kind, takenTarget);
    d.effectiveTaken = false; // low confidence: force not-taken
    d.branchMode = FrontEndMode::LowConf;
    return d;
}

void
WishEngine::onFlush()
{
    mode_ = FrontEndMode::Normal;
    lowConfFromLoop_ = false;
    pendingTarget_ = 0xffffffff;
    predBuffer_.fill(-1);
}

std::optional<bool>
WishEngine::predictedPredicate(PredIdx p) const
{
    const std::int8_t v = predBuffer_[p];
    if (v < 0)
        return std::nullopt;
    return v != 0;
}

std::uint32_t
WishEngine::loopInstance(std::uint32_t pc) const
{
    auto it = loopTrips_.find(pc);
    return it == loopTrips_.end() ? 0 : it->second.instance;
}

} // namespace wisc
