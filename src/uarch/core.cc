#include "uarch/core.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "arch/emulator.hh"
#include "arch/threaded.hh"
#include "common/log.hh"
#include "uarch/attribution.hh"

namespace wisc {

namespace {

bool
rangesOverlap(Addr a, unsigned asz, Addr b, unsigned bsz)
{
    return a < b + bsz && b < a + asz;
}

/** First and last 8-byte-aligned word touched by [addr, addr+size). */
inline Addr
firstWord(Addr addr)
{
    return addr >> 3;
}

inline Addr
lastWord(Addr addr, unsigned size)
{
    return (addr + size - 1) >> 3;
}

} // namespace

Core::Core(const SimParams &params, StatSet &stats)
    : params_(params),
      stats_(stats),
      memsys_(params, stats),
      bpred_(makeBranchPredictor(params, stats)),
      btb_(params, stats),
      ras_(params.rasEntries),
      itc_(params.indirectEntries, params.indirectHistBits),
      conf_(makeConfidenceEstimator(params, stats, *bpred_)),
      wish_(stats, params.wishLoopBias),
      merge_(params.dynMergeEntries, params.dynMergeTrackUops)
{
    // With any of these at 0 no µop could ever retire, and the core
    // would spin until maxCycles.
    const std::pair<const char *, unsigned> atLeastOne[] = {
        {"decodeWidth", params.decodeWidth},
        {"issueWidth", params.issueWidth},
        {"retireWidth", params.retireWidth},
        {"iqSize", params.iqSize},
        {"memPortsPerCycle", params.memPortsPerCycle},
        {"maxOutstandingMisses", params.maxOutstandingMisses},
        {"maxCondBrPerFetch", params.maxCondBrPerFetch},
    };
    for (const auto &[name, value] : atLeastOne)
        if (value == 0)
            wisc_fatal("SimParams::", name, " is 0: the core cannot retire");
    // A select-µop pair renames into two ROB and two IQ entries at once.
    if (params.predMech == PredMechanism::SelectUop &&
        (params.robSize < 2 || params.iqSize < 2))
        wisc_fatal("SimParams::", params.robSize < 2 ? "robSize" : "iqSize",
                   " is below 2: a select-µop pair cannot rename");

    // The fetch queue models the front-end pipe itself, so it must hold
    // frontEndDelay() stages' worth of fetched µops plus a small decode
    // buffer — otherwise back-pressure would artificially restart the
    // pipe latency.
    fetchQueueCap_ = params.frontEndDelay() * params.fetchWidth +
                     2 * params.fetchWidth;

    // A dynamically predicated region must be able to rename fully into
    // the scheduler: the trigger cannot complete (and thus nothing past
    // it can retire) until the region finishes fetching, so trigger +
    // region must fit in the IQ and the ROB with room to spare.
    dynRegionCap_ = params.dynMaxRegionUops;
    dynRegionCap_ = std::min(
        dynRegionCap_, params.iqSize > 2 ? params.iqSize - 2 : 1u);
    dynRegionCap_ = std::min(
        dynRegionCap_, params.robSize > 2 ? params.robSize / 2 : 1u);

    if (params.dynPred != DynPredMode::Off) {
        dynTriggers_ = &stats.counter(
            "dyn.triggers", "low-confidence branches converted to "
                            "dynamically predicated regions");
        dynRegionUops_ = &stats.counter(
            "dyn.region_uops", "µops fetched inside dynamically "
                               "predicated regions");
        dynNullifiedUops_ = &stats.counter(
            "dyn.nullified_uops", "region µops off the real path "
                                  "(retired as predicated NOPs)");
        dynSuccess_ = &stats.counter(
            "dyn.region_success", "regions whose real control flow "
                                  "reconverged at the predicted merge "
                                  "point");
        dynFailed_ = &stats.counter(
            "dyn.region_failed", "regions that missed the merge point "
                                 "and flushed like a misprediction");
        dynSavedFlushes_ = &stats.counter(
            "dyn.saved_flushes", "successful regions whose trigger was "
                                 "mispredicted (a flush predication "
                                 "avoided)");
        dynFetchGates_ = &stats.counter(
            "dyn.fetch_gates", "fetch stalls injected on "
                               "low-confidence branches (FetchGate)");
    }

    cCycles_ = &stats.counter("core.cycles", "simulated cycles");
    cRetired_ = &stats.counter("core.retired_uops", "retired µops");
    cRetiredNops_ = &stats.counter("core.retired_pred_false",
                                   "retired with FALSE qualifying pred");
    cFetched_ = &stats.counter("core.fetched_uops",
                               "µops fetched (incl. wrong path)");
    cCondBranches_ = &stats.counter("core.cond_branches",
                                    "retired conditional branches");
    cMispredicts_ = &stats.counter("core.branch_mispredicts",
                                   "retired cond. branches whose "
                                   "prediction was wrong");
    cFlushes_ = &stats.counter("core.flushes", "pipeline flushes");
    hFetchWidth_ = &stats.histogram("core.fetch_width", params.fetchWidth,
                                    "µops delivered per fetching cycle");
    hFlushSquash_ = &stats.histogram("core.flush_squash", 64,
                                     "µops squashed per pipeline flush");
}

// ---------------------------------------------------------------------
// Probe emission
// ---------------------------------------------------------------------

void
Core::addSink(ProbeSink *s)
{
    wisc_assert(s != nullptr, "addSink(nullptr)");
    wisc_assert(nsinks_ < kMaxSinks, "too many probe sinks attached");
    sinks_[nsinks_++] = s;
}

void
Core::emitFetch(const DynInst &di, Cycle c)
{
    FetchProbe p{di.uid, di.pc, di.inst, c};
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onFetch(p);
}

void
Core::emitRename(const DynInst &di)
{
    StageProbe p{di.uid, now_};
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onRename(p);
}

void
Core::emitIssue(const DynInst &di)
{
    StageProbe p{di.uid, now_};
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onIssue(p);
}

void
Core::emitComplete(const DynInst &di, Cycle c)
{
    StageProbe p{di.uid, c};
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onComplete(p);
}

void
Core::emitRetire(const DynInst &di)
{
    const Instruction &si = *di.inst;
    RetireProbe p;
    p.uid = di.uid;
    p.seq = di.seq;
    p.pc = di.pc;
    p.cycle = now_;
    p.predFalse = !di.step.qpTrue;
    p.isCondBr = si.op == Opcode::Br;
    p.mispredicted = di.mispredicted;
    p.confValid =
        p.isCondBr &&
        ((params_.wishEnabled && si.wish != WishKind::None) ||
         (params_.dynPred != DynPredMode::Off && !di.dynRegion));
    p.highConf = di.highConf;
    p.wishKind = si.wish;
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onRetire(p);
}

void
Core::emitSquash(const DynInst &di)
{
    SquashProbe p{di.uid};
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onSquash(p);
}

void
Core::emitFlush(const DynInst &branch, FlushCause cause)
{
    FlushProbe p{branch.pc, branch.seq, now_, cause};
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onFlush(p);
}

void
Core::emitCycle()
{
    CycleProbe p;
    p.cycle = now_;
    p.robEmpty = rob_.empty();
    p.renameBlocked = renameBlocked_;
    // The head facts are reported only when retirement actually
    // stopped on the head this cycle (not when it exhausted its width
    // or drained the ROB): only then is the head's stall reason what
    // limited the cycle. Retirement runs first in the cycle, so the
    // blocking µop is still rob_.front() here.
    if (retireStalledOnHead_ && !rob_.empty()) {
        const DynInst &h = rob_.front();
        const bool isLoad =
            h.isLoadOp() && !h.memSkipped && h.selectPart != 2;
        // The head's producers have all completed (they are older and
        // retirement is in order), so it is never *currently* waiting;
        // report instead whether the last producer its issue waited on
        // was a predication-induced dependence. Both facts can hold at
        // once (a predicate-delayed load that then missed) —
        // prioritizing is the sink's job.
        p.headLoadMiss = isLoad && (h.l1Missed || !h.issued);
        p.headPredWait = h.lastWaitPred;
    }
    for (unsigned i = 0; i < nsinks_; ++i)
        sinks_[i]->onCycle(p);
}

// ---------------------------------------------------------------------
// Dependence bookkeeping
// ---------------------------------------------------------------------

DynInst *
Core::findInst(SeqNum seq)
{
    if (rob_.empty() || seq == 0)
        return nullptr;
    SeqNum base = rob_.front().seq;
    if (seq < base || seq >= base + rob_.size())
        return nullptr;
    return &rob_[static_cast<std::size_t>(seq - base)];
}

const DynInst *
Core::findInst(SeqNum seq) const
{
    return const_cast<Core *>(this)->findInst(seq);
}

bool
Core::producerDone(SeqNum seq) const
{
    if (seq == 0)
        return true;
    const DynInst *p = findInst(seq);
    if (!p)
        return true; // already retired
    return p->completed && p->completeCycle <= now_;
}

/**
 * Build the dependence list and claim producer slots for a renamed µop,
 * implementing the predication mechanisms of §2.1 / §5.3.3 and the
 * NO-DEPEND oracle. Select-µop expansion is handled by the caller; this
 * models the C-style single-µop shape (selectPart == 0) or the two
 * halves (1 = compute, 2 = select).
 */
void
Core::computeDeps(DynInst &di)
{
    const Instruction &si = *di.inst;
    const bool noDep = params_.oracle.noDepend;
    const bool predPredicted = di.hasPredQp && si.qp != 0 && !di.isCondBr();

    // 'pred' marks a predication-induced dependence (qualifying
    // predicate / old destination) in predDepMask for attribution.
    auto dep = [&](SeqNum s, bool pred = false) {
        if (s != 0) {
            wisc_assert(di.numDeps < kMaxDeps,
                        "µop exceeds kMaxDeps producers");
            if (pred)
                di.predDepMask |= static_cast<std::uint8_t>(1u << di.numDeps);
            di.deps[di.numDeps++] = s;
        }
    };
    auto depReg = [&](RegIdx r, bool pred = false) {
        if (r != kRegZero)
            dep(regProducer_[r], pred);
    };
    auto depPred = [&](PredIdx p, bool pred = false) {
        if (p != 0)
            dep(predProducer_[p], pred);
    };

    const bool writesReg = di.writesReg();
    const bool writesPred = di.writesPred();

    if (di.dynRegion) {
        // Dynamically predicated region µop: the trigger branch stands
        // in for a qualifying predicate over the whole region, so every
        // region µop — on or off the real path — carries a
        // predication-induced dependence on it plus the baseline
        // C-style shape with a *forced* old-destination dependence
        // (until the trigger resolves, the hardware cannot know which
        // side of the hammock is real). If the trigger already retired
        // (it resolved while these µops sat in the fetch queue), the
        // producer lookup sees it as done, exactly like any retired
        // producer.
        dep(dynTriggerSeq_, true);
        if (di.isCondBr()) {
            depPred(si.qp);
            return; // predicated branch: resolves but never redirects
        }
        if (si.op == Opcode::Jmp || si.op == Opcode::Nop)
            return;
        if (di.readsRs1())
            depReg(si.rs1);
        if (di.readsRs2())
            depReg(si.rs2);
        depPred(si.qp, true);
        if (writesReg)
            depReg(si.rd, true); // old destination value, always
        if (writesPred && !si.unc) {
            depPred(si.pd, true);
            depPred(si.pd2, true);
        }
        if (si.op == Opcode::PNot || si.op == Opcode::PAnd ||
            si.op == Opcode::POr) {
            depPred(si.ps);
            if (si.op != Opcode::PNot)
                depPred(si.ps2);
        }
        claimProducers(di);
        return;
    }

    if (di.selectPart == 2) {
        // Select half: depends on the compute half (previous seq), the
        // old destination, and the predicate.
        dep(di.seq - 1);
        depReg(si.rd, true);
        depPred(si.qp, true);
        claimProducers(di);
        return;
    }

    if (di.isCondBr()) {
        // A branch resolves against the *real* predicate value.
        depPred(si.qp);
        return;
    }
    if (si.op == Opcode::JmpR || si.op == Opcode::Ret) {
        depReg(si.rs1);
        return;
    }
    if (si.op == Opcode::Jmp || si.op == Opcode::Call ||
        si.op == Opcode::Halt || si.op == Opcode::Nop) {
        if (si.op == Opcode::Call)
            claimProducers(di);
        return;
    }

    if (noDep && si.qp != 0) {
        // NO-DEPEND oracle: the predicate value is known at rename.
        if (!di.step.qpTrue)
            return; // pure NOP: no deps, claims nothing
        if (di.readsRs1())
            depReg(si.rs1);
        if (di.readsRs2())
            depReg(si.rs2);
        if (si.op == Opcode::PNot || si.op == Opcode::PAnd ||
            si.op == Opcode::POr) {
            depPred(si.ps);
            if (si.op != Opcode::PNot)
                depPred(si.ps2);
        }
        claimProducers(di);
        return;
    }

    if (predPredicted) {
        // §3.5.3: the qualifying predicate is predicted; the µop is
        // shaped as if the predicate were already resolved.
        if (di.predQpVal) {
            if (di.readsRs1())
                depReg(si.rs1);
            if (di.readsRs2())
                depReg(si.rs2);
        } else {
            // Predicted FALSE: a register move of the old destination
            // (or an old-value pass-through for predicate writes).
            if (writesReg)
                depReg(si.rd, true);
            if (writesPred && !si.unc) {
                depPred(si.pd, true);
                depPred(si.pd2, true);
            }
        }
        claimProducers(di);
        return;
    }

    // Baseline C-style conditional expression (§2.1): the µop reads its
    // sources, the predicate, and — when guarded — the old destination.
    if (di.readsRs1())
        depReg(si.rs1);
    if (di.readsRs2())
        depReg(si.rs2);
    if (di.selectPart == 0)
        depPred(si.qp, true);
    if (si.qp != 0 && di.selectPart == 0) {
        if (writesReg)
            depReg(si.rd, true); // old destination value
        if (writesPred && !si.unc) {
            depPred(si.pd, true);
            depPred(si.pd2, true);
        }
    }
    if (si.op == Opcode::PNot || si.op == Opcode::PAnd ||
        si.op == Opcode::POr) {
        depPred(si.ps);
        if (si.op != Opcode::PNot)
            depPred(si.ps2);
    }

    if (di.selectPart == 1)
        return; // compute half claims nothing
    claimProducers(di);
}

void
Core::claimProducers(DynInst &di)
{
    const Instruction &si = *di.inst;
    if (di.writesReg() && si.rd != kRegZero) {
        di.prevRegProducer = regProducer_[si.rd];
        di.claimedReg = si.rd;
        di.claimsReg = true;
        regProducer_[si.rd] = di.seq;
    }
    if (di.writesPred()) {
        unsigned slot = 0;
        for (PredIdx p : {si.pd, si.pd2}) {
            if (p != kPredNone) {
                di.prevPredProducer[slot] = predProducer_[p];
                di.claimedPred[slot] = p;
                predProducer_[p] = di.seq;
            }
            ++slot;
        }
    }
}

bool
Core::depsReady(const DynInst &di) const
{
    for (unsigned i = 0; i < di.numDeps; ++i)
        if (!producerDone(di.deps[i]))
            return false;
    return true;
}

// ---------------------------------------------------------------------
// Event-driven wakeup
// ---------------------------------------------------------------------

/**
 * Link the µop under its first still-outstanding producer, or move it
 * to the ready list when every producer has completed. Waiting on one
 * producer at a time is sufficient because completion is monotonic: by
 * the time the watched producer completes and the remaining producers
 * are re-scanned, any producer that completed in the meantime is seen
 * as done, and a still-outstanding one is watched next.
 */
void
Core::scheduleOrReady(DynInst &di)
{
    for (unsigned i = 0; i < di.numDeps; ++i) {
        DynInst *p = findInst(di.deps[i]);
        if (!p || p->completed)
            continue; // retired or complete: this producer is done
        di.waitingOn = p->seq;
        di.chainPrev = 0;
        di.chainNext = p->wakeHead;
        if (p->wakeHead)
            findInst(p->wakeHead)->chainPrev = di.seq;
        p->wakeHead = di.seq;
        return;
    }
    di.waitingOn = 0;
    if (params_.pollScheduler)
        return; // the reference scheduler rescans; no ready list
    if (!readyList_.empty() && readyList_.back() > di.seq)
        readySorted_ = false;
    readyList_.push_back(di.seq);
}

/** The producer completed: re-evaluate every consumer in its chain. */
void
Core::wakeConsumers(DynInst &producer)
{
    SeqNum s = producer.wakeHead;
    producer.wakeHead = 0;
    while (s != 0) {
        DynInst *c = findInst(s);
        wisc_assert(c && c->waitingOn == producer.seq,
                    "wait chain corrupt at seq ", s);
        SeqNum next = c->chainNext;
        c->waitingOn = 0;
        c->chainPrev = 0;
        c->chainNext = 0;
        // Predication-delay taint for attribution, stamped here — at
        // the producer's completion — because only then is the
        // producer's own taint final (it has issued). A consumer is
        // pred-delayed when the resolved edge itself is
        // predication-induced, or transitively when the producer was
        // (mcf's critical value load waits on an address register fed
        // by a predicated chase load — the pred edge is one hop
        // upstream). Re-linking under a later producer re-stamps, so
        // the value at issue reflects the last wait resolved; a µop
        // that never waits keeps false, which is how the taint dies
        // with the serialization chain. Pure observation, so detached
        // runs skip it.
        if (nsinks_) {
            bool edgePred = false;
            for (unsigned i = 0; i < c->numDeps; ++i)
                if (c->deps[i] == producer.seq &&
                    ((c->predDepMask >> i) & 1u) != 0)
                    edgePred = true;
            c->lastWaitPred = edgePred || producer.lastWaitPred;
        }
        scheduleOrReady(*c);
        s = next;
    }
}

/** Remove a (squashed) µop from the wait chain it is linked into, if
 *  any. Chains therefore never contain dead entries, which is what
 *  makes the seq-based links safe across flushes and seq reuse. */
void
Core::unlinkWaiter(DynInst &di)
{
    if (di.waitingOn == 0)
        return;
    if (di.chainPrev == 0) {
        DynInst *p = findInst(di.waitingOn);
        wisc_assert(p && p->wakeHead == di.seq,
                    "wait chain head mismatch at seq ", di.seq);
        p->wakeHead = di.chainNext;
    } else {
        findInst(di.chainPrev)->chainNext = di.chainNext;
    }
    if (di.chainNext)
        findInst(di.chainNext)->chainPrev = di.chainPrev;
    di.waitingOn = 0;
    di.chainPrev = 0;
    di.chainNext = 0;
}

// ---------------------------------------------------------------------
// In-flight store index
// ---------------------------------------------------------------------

void
Core::indexStore(SeqNum seq, Addr addr, unsigned size)
{
    for (Addr w = firstWord(addr); w <= lastWord(addr, size); ++w)
        storesByWord_[w].push_back(seq); // rename order: ascending
}

void
Core::unindexStore(SeqNum seq, Addr addr, unsigned size)
{
    for (Addr w = firstWord(addr); w <= lastWord(addr, size); ++w) {
        auto it = storesByWord_.find(w);
        wisc_assert(it != storesByWord_.end(), "store index miss");
        auto &v = it->second;
        auto pos = std::find(v.begin(), v.end(), seq);
        wisc_assert(pos != v.end(), "store index entry miss");
        v.erase(pos);
    }
}

const DynInst *
Core::youngestOlderStore(SeqNum seq, Addr addr, unsigned size) const
{
    const DynInst *best = nullptr;
    for (Addr w = firstWord(addr); w <= lastWord(addr, size); ++w) {
        auto it = storesByWord_.find(w);
        if (it == storesByWord_.end())
            continue;
        const auto &v = it->second;
        // Youngest-first; the first *overlapping* older store in this
        // bucket decides for this word (same-word non-overlapping byte
        // ops are skipped, exactly like the old full reverse walk).
        for (auto r = v.rbegin(); r != v.rend(); ++r) {
            if (*r >= seq)
                continue;
            const DynInst *st = findInst(*r);
            wisc_assert(st, "indexed store not in flight");
            if (!rangesOverlap(st->memAddr, st->memSize, addr, size))
                continue;
            if (!best || st->seq > best->seq)
                best = st;
            break;
        }
    }
    return best;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
Core::fetchOne(std::uint32_t idx)
{
    DynInst &di = fetchQueue_.emplace_back();
    di.pc = idx;
    di.uid = nextUid_++;
    di.fetchCycle = now_;
    di.inst = &code_[idx];
    di.pre = pre_[idx].flags;
    di.exLat = pre_[idx].exLat;
    di.undoStart = undo_.mark();
    if (dynActive_) {
        // Dynamically predicated region: fetch runs linearly to the
        // merge point; only the µop the real control flow is at
        // executes, the rest are nullified (predicated-FALSE NOPs).
        di.dynRegion = true;
        if (idx == dynRealPc_) {
            di.step =
                executeInst(*di.inst, idx, codeSize_, state_, &undo_);
            dynRealPc_ = di.step.nextIndex;
        } else {
            di.dynNullified = true;
            di.step.qpTrue = false;
            di.step.nextIndex = idx + 1;
            ++*dynNullifiedUops_;
        }
        ++*dynRegionUops_;
    } else {
        di.step = executeInst(*di.inst, idx, codeSize_, state_, &undo_);
    }
    di.undoEnd = undo_.mark();
    di.renameReady = now_ + params_.frontEndDelay();
    di.memAddr = di.step.memAddr;
    di.memSize = di.step.memSize;
    di.memSkipped = di.isMemOp() && !di.step.qpTrue;

    // Predicate-prediction capture (§3.5.3), before this µop's own
    // buffer maintenance. Region µops skip the capture: their
    // dependence shape is fixed by the region (guarded by the trigger),
    // not by the §3.5.3 buffer.
    if (params_.wishEnabled && di.inst->qp != 0 && !di.dynRegion) {
        auto v = wish_.predictedPredicate(di.inst->qp);
        if (v) {
            di.hasPredQp = true;
            di.predQpVal = *v;
        }
    }
    decodeWish(idx);

    if (di.dynRegion) {
        // Linear region fetch: control µops inside the region neither
        // redirect nor predict — they are predicated like everything
        // else and resolve against the trigger.
        fetchPc_ = idx + 1;
        if (fetchPc_ >= dynRegionEnd_)
            dynEndRegion();
    } else if (di.isCtrl()) {
        switch (processControl(di)) {
          case FetchStall::None:
            break;
          case FetchStall::Gate:
            // Throttle fetch for a few cycles instead of predicating,
            // shrinking the wrong-path exposure of a likely
            // misprediction.
            fetchStallUntil_ = std::max(
                fetchStallUntil_, now_ + params_.dynFetchGateCycles);
            break;
          case FetchStall::BtbMiss:
            // The target is unknown until decode: a small redirect
            // bubble.
            fetchStallUntil_ = now_ + 2;
            break;
        }
        fetchPc_ = di.predictedTarget;
    } else {
        fetchPc_ = idx + 1;
    }

    if (di.step.halted)
        fetchHalted_ = true;

    ++*cFetched_;
    if (nsinks_)
        emitFetch(di, now_);
}

/**
 * May the low-confidence normal branch at 'idx' open a dynamically
 * predicated region ending at 'merge'? Structural conditions only —
 * confidence and the merge-table prediction were already consulted.
 */
bool
Core::dynCanTrigger(std::uint32_t idx, std::uint32_t merge) const
{
    if (dynActive_ || dynOutstandingUid_ != 0)
        return false; // one region in flight at a time
    if (wish_.mode() != FrontEndMode::Normal)
        return false; // never nest into a wish-branch region
    if (merge <= idx + 1 || merge >= codeSize_)
        return false;
    if (merge - idx - 1 > dynRegionCap_)
        return false;
    // The region must be predicable: calls, returns, indirect jumps and
    // halts cannot be nullified (they move non-speculative state or end
    // the program), so their presence vetoes the trigger.
    for (std::uint32_t i = idx + 1; i < merge; ++i) {
        const Opcode op = code_[i].op;
        if (op == Opcode::Call || op == Opcode::Ret ||
            op == Opcode::JmpR || op == Opcode::Halt)
            return false;
    }
    return true;
}

/** Region fetch reached the merge point: stamp the outcome on the
 *  trigger (still in flight — only an older branch's flush could have
 *  removed it, and that resets dynActive_) and resume normal fetch. */
void
Core::dynEndRegion()
{
    const bool success = dynRealPc_ == dynRegionEnd_;
    DynInst *t = nullptr;
    for (std::size_t i = rob_.size(); i-- > 0;) {
        if (rob_[i].uid == dynOutstandingUid_) {
            t = &rob_[i];
            break;
        }
    }
    if (!t)
        for (std::size_t i = 0; i < fetchQueue_.size(); ++i)
            if (fetchQueue_[i].uid == dynOutstandingUid_) {
                t = &fetchQueue_[i];
                break;
            }
    wisc_assert(t, "dynamic-predication trigger vanished mid-region");
    t->dynOutcomeKnown = true;
    t->dynPredFailed = !success;
    dynActive_ = false;
}

/** Decode-side wish bookkeeping for the µop at idx, strictly in fetch
 *  order: the mode machine's "target fetched" exit (Figure 8), then the
 *  predicate buffer's complement map and write invalidation (§3.5.3). */
WISC_ALWAYS_INLINE void
Core::decodeWish(std::uint32_t idx)
{
    wish_.onInstructionFetched(idx);
    const Instruction &si = code_[idx];
    const std::uint16_t flags = pre_[idx].flags;
    if (flags & kPreCompare)
        wish_.noteCompare(si.pd, si.pd2);
    if (flags & kPreWritesPred) {
        wish_.notePredWrite(si.pd);
        wish_.notePredWrite(si.pd2);
    }
}

/**
 * Front-end effects of fetching the control µop di: its direction or
 * target prediction — for a conditional branch through the wish mode
 * machine (§3.5) or dynamic predication, with the effective direction
 * shifted into the speculative history — and the BTB, RAS and ITC
 * updates. Fills di's prediction fields and checkpoints. The caller
 * redirects fetch to di.predictedTarget and applies the returned
 * stall; fastForward() has no fetch to stall.
 */
WISC_ALWAYS_INLINE Core::FetchStall
Core::processControl(DynInst &di)
{
    const Instruction &si = *di.inst;
    const std::uint32_t idx = di.pc;
    const auto &oracle = params_.oracle;
    FetchStall stall = FetchStall::None;

    switch (si.op) {
      case Opcode::Br: {
        bool predictorTaken = bpred_->predict(idx, di.ckpt);
        bool effective;

        if (oracle.perfectCBP) {
            predictorTaken = di.step.taken;
            effective = di.step.taken;
            di.highConf = true;
            di.fetchMode = FrontEndMode::Normal;
        } else if (params_.wishEnabled && si.wish != WishKind::None) {
            bool highConf =
                oracle.perfectConfidence
                    ? (predictorTaken == di.step.taken)
                    : conf_->estimate(idx, di.ckpt.globalHistory);
            WishDecision d = wish_.onWishBranch(idx, si.wish, si.qp,
                                                predictorTaken, highConf,
                                                si.target);
            effective = d.effectiveTaken;
            di.fetchMode = d.branchMode;
            di.highConf = d.highConfidence;
        } else {
            effective = predictorTaken;
            di.fetchMode = FrontEndMode::Normal;
            if (params_.dynPred != DynPredMode::Off) {
                // Dynamic predication: the hardware counterpart of a
                // wish branch for compiler-unmarked branches. Estimate
                // confidence exactly like the wish path would.
                const bool highConf =
                    oracle.perfectConfidence
                        ? (predictorTaken == di.step.taken)
                        : conf_->estimate(idx, di.ckpt.globalHistory);
                di.highConf = highConf;
                if (!highConf &&
                    params_.dynPred == DynPredMode::FetchGate) {
                    // Cheap fallback: stall fetch instead of
                    // predicating.
                    stall = FetchStall::Gate;
                    ++*dynFetchGates_;
                } else if (!highConf) {
                    auto merge =
                        merge_.predict(idx, params_.dynMergeMinConf);
                    if (merge && dynCanTrigger(idx, *merge)) {
                        // Open the region: force fall-through and
                        // predicate everything up to the merge point
                        // on this branch.
                        di.dynPredTrigger = true;
                        effective = false;
                        dynActive_ = true;
                        dynRegionEnd_ = *merge;
                        dynRealPc_ = di.step.nextIndex;
                        dynOutstandingUid_ = di.uid;
                        dynTriggerSeq_ = 0;
                        ++*dynTriggers_;
                    }
                }
            }
        }

        di.predictorTaken = predictorTaken;
        di.predictedTaken = effective;
        di.predictedTarget = effective ? si.target : idx + 1;
        if (si.wish == WishKind::Loop)
            di.loopInstance = wish_.loopInstance(idx);
        bpred_->updateSpeculative(idx, effective);

        // A predicted-taken branch that misses the BTB stalls fetch
        // (this overrides a FetchGate stall).
        if (!btb_.lookup(idx) && effective)
            stall = FetchStall::BtbMiss;
        btb_.insert(idx, si.target, si.wish, true);
        break;
      }
      case Opcode::Jmp:
      case Opcode::Call: {
        di.predictedTaken = true;
        di.predictedTarget = si.target;
        if (!btb_.lookup(idx))
            stall = FetchStall::BtbMiss;
        btb_.insert(idx, si.target, WishKind::None, false);
        if (si.op == Opcode::Call)
            ras_.push(idx + 1);
        break;
      }
      case Opcode::Ret: {
        std::uint32_t tgt = ras_.pop();
        if (oracle.perfectCBP)
            tgt = di.step.nextIndex;
        if (tgt == 0 || tgt >= codeSize_)
            tgt = idx + 1;
        di.predictedTaken = true;
        di.predictedTarget = tgt;
        break;
      }
      case Opcode::JmpR: {
        di.ckpt.globalHistory = bpred_->globalHistory();
        std::uint32_t tgt =
            itc_.predict(idx, di.ckpt.globalHistory);
        if (oracle.perfectCBP)
            tgt = di.step.nextIndex;
        if (tgt == 0 || tgt >= codeSize_)
            tgt = idx + 1;
        di.predictedTaken = true;
        di.predictedTarget = tgt;
        break;
      }
      default:
        wisc_panic("processControl on non-control op");
    }

    di.rasCkpt = ras_.checkpoint();
    return stall;
}

void
Core::stageFetch()
{
    // A freeze (drain toward a checkpoint boundary) must not interrupt
    // an open dynamically predicated region: the trigger cannot
    // complete until the region finishes fetching, so freezing
    // mid-region would deadlock the drain.
    if ((fetchFrozen_ && !dynActive_) || fetchHalted_ ||
        now_ < fetchStallUntil_)
        return;
    if (fetchQueue_.size() >= fetchQueueCap_)
        return;
    if (fetchPc_ >= codeSize_) {
        fetchHalted_ = true; // only a flush can redirect us
        return;
    }

    // One I-cache line per cycle; a miss stalls until the fill.
    unsigned lat = memsys_.fetchAccess(instAddr(fetchPc_));
    if (lat > params_.il1.hitLatency) {
        fetchStallUntil_ = now_ + lat;
        return;
    }
    const Addr lineMask = ~(static_cast<Addr>(params_.il1.lineBytes) - 1);
    const Addr startLine = instAddr(fetchPc_) & lineMask;

    unsigned slots = params_.fetchWidth;
    unsigned condBrs = 0;
    unsigned processed = 0;

    while (slots > 0 && processed < params_.fetchWidth * 4) {
        if (fetchHalted_ || now_ < fetchStallUntil_)
            break;
        if (fetchPc_ >= codeSize_) {
            fetchHalted_ = true;
            break;
        }
        if ((instAddr(fetchPc_) & lineMask) != startLine)
            break;
        if (fetchQueue_.size() >= fetchQueueCap_)
            break;

        std::uint32_t idx = fetchPc_;
        if (pre_[idx].flags & kPreCondBr) {
            if (condBrs >= params_.maxCondBrPerFetch)
                break;
            ++condBrs;
        }

        ++processed;
        fetchOne(idx);
        const DynInst &di = fetchQueue_.back();

        // NO-FETCH oracle: predicated-FALSE µops cost no bandwidth and
        // are dropped from the pipe entirely (except unconditional
        // compares, whose clearing writes are architectural).
        bool elide = params_.oracle.noFetch && !di.step.qpTrue &&
                     !di.isCtrl() &&
                     !(di.inst->unc && di.writesPred());
        if (elide) {
            fetchQueue_.pop_back();
            continue;
        }

        --slots;
        // Fetch ends at the first predicted-taken control transfer.
        if (di.isCtrl() && di.predictedTaken)
            break;
        if (di.step.halted)
            break;
    }
    hFetchWidth_->sample(params_.fetchWidth - slots);
}

// ---------------------------------------------------------------------
// Rename / dispatch
// ---------------------------------------------------------------------

void
Core::stageRename()
{
    renameBlocked_ = false;
    unsigned renamed = 0;
    while (renamed < params_.decodeWidth && !fetchQueue_.empty()) {
        DynInst &front = fetchQueue_.front();
        if (front.renameReady > now_)
            break;

        const bool expand =
            params_.predMech == PredMechanism::SelectUop &&
            (front.pre & kPreSelectShape) &&
            !params_.oracle.noDepend &&
            !front.hasPredQp &&
            !front.dynRegion;
        const unsigned need = expand ? 2 : 1;

        if (rob_.size() + need > params_.robSize ||
            iqCount_ + need > params_.iqSize) {
            renameBlocked_ = true;
            break;
        }

        if (expand) {
            // Compute half: executes the operation unconditionally into
            // a temporary; carries the memory access.
            DynInst &a = rob_.emplace_back();
            a = front;
            a.seq = nextSeq_++;
            a.selectPart = 1;
            if (a.isStoreOp() && !a.memSkipped)
                indexStore(a.seq, a.memAddr, a.memSize);
            a.undoEnd = a.undoStart; // effects commit with the select
            computeDeps(a);
            a.inIQ = true;
            ++iqCount_;
            scheduleOrReady(a);

            // Select half: picks new vs old value once the predicate
            // resolves; owns the architectural effects.
            DynInst &b = rob_.emplace_back();
            b = front;
            fetchQueue_.pop_front();
            b.seq = nextSeq_++;
            b.uid = nextUid_++; // the select half is a distinct µop
            b.selectPart = 2;
            b.memSize = 0;
            computeDeps(b);
            b.inIQ = true;
            ++iqCount_;
            scheduleOrReady(b);
            if (nsinks_) {
                emitFetch(b, b.fetchCycle);
                emitRename(a);
                emitRename(b);
            }
            renamed += 2;
            continue;
        }

        DynInst &di = rob_.emplace_back();
        di = front;
        fetchQueue_.pop_front();
        di.seq = nextSeq_++;
        // Region µops rename strictly after their trigger (in order),
        // so the trigger's seq is known by the time they need it.
        if (dynOutstandingUid_ != 0 && di.uid == dynOutstandingUid_)
            dynTriggerSeq_ = di.seq;
        computeDeps(di);
        di.inIQ = true;
        ++iqCount_;
        if (nsinks_)
            emitRename(di);
        if (di.isStoreOp() && !di.memSkipped)
            indexStore(di.seq, di.memAddr, di.memSize);
        scheduleOrReady(di);
        ++renamed;
    }
}

// ---------------------------------------------------------------------
// Issue and execute
// ---------------------------------------------------------------------

unsigned
Core::loadLatency(const DynInst &di)
{
    // Forwarding was already decided at issue; this is a real access.
    return memsys_.loadAccess(di.memAddr, now_);
}

/**
 * Issue one µop whose producers are all complete, unless a structural
 * or memory hazard blocks it this cycle (memory port pressure, an
 * incomplete older overlapping store, or a full MSHR file). Shared
 * verbatim by the event-driven and the poll-reference schedulers so the
 * two can only diverge in *selection*, never in hazard rules.
 */
bool
Core::tryIssueOne(DynInst &di, unsigned &memPorts)
{
    bool isLoad = di.isLoadOp() && !di.memSkipped && di.selectPart != 2;
    bool isStore = di.isStoreOp() && !di.memSkipped;
    if ((isLoad || isStore) && memPorts >= params_.memPortsPerCycle)
        return false;

    // Loads must wait for older overlapping stores' data, and a
    // missing load needs a free MSHR.
    bool forwarded = false;
    if (isLoad) {
        const DynInst *st =
            youngestOlderStore(di.seq, di.memAddr, di.memSize);
        if (st) {
            // The youngest older overlapping store decides.
            if (!(st->completed && st->completeCycle <= now_))
                return false;
            forwarded = true;
        }
        if (!forwarded && !memsys_.loadWouldHitL1(di.memAddr)) {
            // MSHR check: count misses still in flight.
            while (!missHeap_.empty() && missHeap_.top() <= now_)
                missHeap_.pop();
            if (missHeap_.size() >= params_.maxOutstandingMisses)
                return false;
        }
    }

    unsigned lat;
    if (isLoad) {
        lat = forwarded ? params_.latStoreForward : loadLatency(di);
        if (!forwarded && lat > memsys_.l1dHitLatency()) {
            missHeap_.push(now_ + lat);
            di.l1Missed = true;
        }
        ++memPorts;
    } else if (isStore) {
        lat = params_.latAlu;
        ++memPorts;
    } else {
        lat = di.exLat;
    }

    di.issued = true;
    di.completeCycle = now_ + lat;
    events_.push({di.completeCycle, di.seq, di.uid});
    if (nsinks_)
        emitIssue(di);
    return true;
}

void
Core::stageIssue()
{
    if (params_.pollScheduler) {
        stageIssuePoll();
        return;
    }
    if (readyList_.empty())
        return;
    if (!readySorted_) {
        std::sort(readyList_.begin(), readyList_.end());
        readySorted_ = true;
    }

    unsigned issued = 0;
    unsigned memPorts = 0;
    std::size_t keep = 0;
    const std::size_t n = readyList_.size();
    for (std::size_t i = 0; i < n; ++i) {
        SeqNum s = readyList_[i];
        if (issued >= params_.issueWidth) {
            readyList_[keep++] = s;
            continue;
        }
        DynInst *di = findInst(s);
        wisc_assert(di && di->inIQ && !di->issued && !di->completed,
                    "stale ready-list entry ", s);
        if (tryIssueOne(*di, memPorts))
            ++issued;
        else
            readyList_[keep++] = s; // hazard: retry next cycle
    }
    readyList_.resize(keep);
}

/**
 * Reference scheduler (SimParams::pollScheduler): the original
 * O(window²) scan — every in-flight µop re-evaluates every producer
 * every cycle. Kept only to cross-check the event-driven scheduler;
 * also asserts, each cycle, that the wakeup chains agree with the
 * polled dependence state.
 */
void
Core::stageIssuePoll()
{
    unsigned issued = 0;
    unsigned memPorts = 0;
    const std::size_t n = rob_.size();
    for (std::size_t i = 0; i < n && issued < params_.issueWidth; ++i) {
        DynInst &di = rob_[i];
        if (!di.inIQ || di.issued)
            continue;
        const bool ready = depsReady(di);
        wisc_assert(ready == (di.waitingOn == 0),
                    "wakeup chain disagrees with poll scan at seq ",
                    di.seq);
        if (!ready)
            continue;
        if (tryIssueOne(di, memPorts))
            ++issued;
    }
}

// ---------------------------------------------------------------------
// Completion and branch resolution
// ---------------------------------------------------------------------

void
Core::stageComplete()
{
    while (!events_.empty() && events_.top().cycle <= now_) {
        Event ev = events_.top();
        events_.pop();
        DynInst *di = findInst(ev.seq);
        if (!di || di->uid != ev.uid || !di->issued || di->completed)
            continue; // squashed (or stale event for a reused seq)
        if (di->dynPredTrigger && dynActive_ &&
            di->uid == dynOutstandingUid_) {
            // The trigger's outcome is unknown until region fetch
            // reaches the merge point: defer its completion (the
            // modeled hardware resolves the trigger at
            // max(execute, region-fetch-end)). The region-size cap
            // guarantees the region always finishes fetching.
            events_.push({now_ + 1, ev.seq, ev.uid});
            continue;
        }
        di->completed = true;
        di->completeCycle = ev.cycle;
        di->inIQ = false;
        --iqCount_;
        if (nsinks_)
            emitComplete(*di, ev.cycle);

        wakeConsumers(*di);

        if (di->isCtrl() && !di->dynRegion)
            resolveBranch(*di);

        // A flush inside resolveBranch squashed younger µops and purged
        // them from the ready list; their stale events are dropped
        // lazily by the findInst/uid check above.
    }
}

void
Core::resolveBranch(DynInst &di)
{
    const Instruction &si = *di.inst;

    if (si.op == Opcode::Jmp || si.op == Opcode::Call)
        return; // direct and unconditional: resolved at fetch

    if (si.op == Opcode::JmpR || si.op == Opcode::Ret) {
        std::uint32_t actual = di.step.nextIndex;
        di.mispredicted = di.predictedTarget != actual;
        if (di.mispredicted)
            flushAfter(di, actual, FlushCause::Normal);
        return;
    }

    if (auto cause = resolveCondBranch(di))
        flushAfter(di, di.step.nextIndex, *cause);
}

/**
 * The recovery rule for a resolved conditional branch (§3.5.4):
 * records whether the raw prediction was wrong and the wish-loop
 * outcome, and returns why the branch must flush, or nothing when the
 * front end's path stands.
 */
WISC_ALWAYS_INLINE std::optional<FlushCause>
Core::resolveCondBranch(DynInst &di)
{
    const Instruction &si = *di.inst;
    const bool actual = di.step.taken;
    di.mispredicted = di.predictorTaken != actual;

    if (di.dynPredTrigger) {
        // Dynamic-predication trigger: the region outcome — stamped by
        // dynEndRegion() before the deferred completion could fire —
        // decides between "predication worked, no flush" and "the real
        // path never reconverged, flush like a plain misprediction".
        wisc_assert(di.dynOutcomeKnown,
                    "trigger resolved before its region ended");
        merge_.noteOutcome(di.pc, di.dynPredFailed, di.mispredicted);
        if (di.uid == dynOutstandingUid_)
            dynOutstandingUid_ = 0;
        if (di.dynPredFailed) {
            ++*dynFailed_;
            return FlushCause::Normal;
        }
        ++*dynSuccess_;
        if (di.mispredicted)
            ++*dynSavedFlushes_;
        return std::nullopt;
    }

    const bool effectiveWrong = di.predictedTaken != actual;
    if (!effectiveWrong) {
        if (si.wish == WishKind::Loop &&
            di.fetchMode == FrontEndMode::LowConf)
            di.loopOutcome = LoopOutcome::Correct;
        return std::nullopt;
    }

    const bool isWish = params_.wishEnabled && si.wish != WishKind::None;
    if (!isWish || di.fetchMode != FrontEndMode::LowConf) {
        // Normal branch, or a wish branch fetched in high-confidence
        // mode: flush, exactly like a conventional misprediction.
        return isWish ? FlushCause::WishHighConf : FlushCause::Normal;
    }

    // Low-confidence wish branch mispredictions (§3.5.4).
    if (si.wish == WishKind::Jump || si.wish == WishKind::Join) {
        // The predicated fall-through path is architecturally correct:
        // no pipeline flush (the whole point of wish branches).
        return std::nullopt;
    }

    // Wish loop classification.
    if (actual) {
        // Predicted not-taken but the loop must iterate again.
        di.loopOutcome = LoopOutcome::EarlyExit;
        return FlushCause::WishLoopEarly;
    }
    if (wish_.loopInstance(di.pc) != di.loopInstance) {
        // The front end has exited this loop instance since the branch
        // was fetched: the over-fetched iterations drain as predicated
        // NOPs. No flush.
        di.loopOutcome = LoopOutcome::LateExit;
        return std::nullopt;
    }
    // The front end is still fetching the loop body.
    di.loopOutcome = LoopOutcome::NoExit;
    return FlushCause::WishLoopNoExit;
}

/** Front-end repair after a flush at 'branch': the predictor's
 *  speculative history (with the branch's true outcome shifted in),
 *  the RAS, and the wish mode machine and predicate buffer. */
WISC_ALWAYS_INLINE void
Core::repairFrontEnd(const DynInst &branch)
{
    if (branch.inst->op == Opcode::Br)
        bpred_->recover(branch.pc, branch.step.taken, branch.ckpt);
    ras_.restore(branch.rasCkpt);
    wish_.onFlush();
}

void
Core::flushAfter(const DynInst &branch, std::uint32_t redirectPc,
                 FlushCause cause)
{
    ++*cFlushes_;
    std::size_t squashed = fetchQueue_.size();

    if (nsinks_)
        emitFlush(branch, cause);

    // Everything in the fetch queue is younger than anything renamed.
    if (nsinks_)
        for (std::size_t i = 0; i < fetchQueue_.size(); ++i)
            emitSquash(fetchQueue_[i]);
    fetchQueue_.clear();

    // Squash renamed µops younger than the branch, restoring the rename
    // producer chains newest-first and repairing the wakeup chains.
    while (!rob_.empty() && rob_.back().seq > branch.seq) {
        DynInst &di = rob_.back();
        if (nsinks_)
            emitSquash(di);
        unlinkWaiter(di);
        // All of this µop's waiters are younger and already unlinked.
        wisc_assert(di.wakeHead == 0,
                    "squashed producer still has waiters");
        if (di.inIQ)
            --iqCount_;
        if (di.isStoreOp() && !di.memSkipped && di.selectPart != 2)
            unindexStore(di.seq, di.memAddr, di.memSize);
        if (di.claimsReg)
            regProducer_[di.claimedReg] = di.prevRegProducer;
        for (unsigned s = 0; s < 2; ++s)
            if (di.claimedPred[s] != kPredNone)
                predProducer_[di.claimedPred[s]] =
                    di.prevPredProducer[s];
        rob_.pop_back();
        ++squashed;
    }
    nextSeq_ = branch.seq + 1;
    hFlushSquash_->sample(squashed);

    readyList_.erase(std::remove_if(readyList_.begin(), readyList_.end(),
                                    [&](SeqNum s) {
                                        return s > branch.seq;
                                    }),
                     readyList_.end());

#ifndef NDEBUG
    // findInst()'s O(1) contract: seq numbers stay dense base..base+size
    // across partial flushes (debug builds only; the walk is O(window)).
    for (std::size_t i = 0; i < rob_.size(); ++i)
        wisc_assert(rob_[i].seq == rob_.front().seq + i,
                    "ROB seq density violated after flush at index ", i);
#endif

    // Roll speculative architectural state back to just after the
    // branch executed.
    undo_.rollbackTo(branch.undoEnd, state_);
    repairFrontEnd(branch);

    // Dynamic predication: while a region is open every possible flush
    // source is older than the trigger (region µops never flush and
    // younger µops do not exist yet), so the trigger was just squashed.
    // After the region ended the trigger survives flushes from younger
    // branches; uids are fetch-ordered, so the comparison decides.
    if (dynOutstandingUid_ != 0) {
        wisc_assert(!dynActive_ || branch.uid < dynOutstandingUid_,
                    "flush from inside an open dynamic region");
        if (branch.uid < dynOutstandingUid_) {
            dynOutstandingUid_ = 0;
            dynActive_ = false;
        }
    }

    fetchPc_ = redirectPc;
    fetchHalted_ = false;
    fetchStallUntil_ = now_ + 1;
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

void
Core::stageRetire()
{
    unsigned retired = 0;
    retireStalledOnHead_ = false;
    while (retired < params_.retireWidth && !rob_.empty()) {
        DynInst &di = rob_.front();
        if (!di.completed || di.completeCycle > now_) {
            retireStalledOnHead_ = true;
            break;
        }

        if (di.isCtrl())
            retireControl(di);

        // Merge-point learning from the retired control flow. Region
        // µops are excluded: their retired pc stream is linear by
        // construction and would teach the table that every branch
        // "reconverges" at the next pc.
        if (params_.dynPred == DynPredMode::MergePoint && !di.dynRegion)
            merge_.onRetire(di.pc, di.step.nextIndex, di.isCondBr(),
                            di.inst->target);

        if (di.isStoreOp() && !di.memSkipped) {
            if (di.selectPart != 1)
                memsys_.tagAccess(di.memAddr);
            if (di.selectPart != 2)
                unindexStore(di.seq, di.memAddr, di.memSize);
        }

        undo_.commitTo(di.undoEnd);

        if (!di.step.qpTrue)
            ++*cRetiredNops_;
        ++retiredUops_;
        ++*cRetired_;

        if (nsinks_)
            emitRetire(di);

        bool halt = di.step.halted;
        rob_.pop_front();
        ++retired;
        if (halt) {
            haltRetired_ = true;
            break;
        }
    }
}

/** Retire-time training and statistics of a control µop: the direction
 *  predictor and the confidence estimator train against the fetch-time
 *  checkpoint, the ITC learns the indirect target. */
WISC_ALWAYS_INLINE void
Core::retireControl(const DynInst &di)
{
    const Instruction &si = *di.inst;
    if (si.op == Opcode::Br && !di.dynRegion) {
        ++*cCondBranches_;
        bpred_->train(di.pc, di.step.taken, di.ckpt);
        if (di.mispredicted)
            ++*cMispredicts_;
        if (params_.wishEnabled && si.wish != WishKind::None) {
            conf_->update(di.pc, di.ckpt.globalHistory, !di.mispredicted);
            retireWishStats(di);
        } else if (params_.dynPred != DynPredMode::Off) {
            // Both dynamic modes gate on the same estimator, so it
            // trains on every normal branch, with the same fetch-time
            // history the estimate used.
            conf_->update(di.pc, di.ckpt.globalHistory, !di.mispredicted);
        }
    } else if (si.op == Opcode::JmpR) {
        itc_.update(di.pc, di.ckpt.globalHistory, di.step.nextIndex);
        if (di.mispredicted)
            ++*cMispredicts_;
    } else if (si.op == Opcode::Ret && di.mispredicted) {
        ++*cMispredicts_;
    }
}

Counter &
Core::wishOutcomeCounter(WishKind kind, bool low, unsigned slot)
{
    // Lazily resolved so a counter is still registered the first time
    // its event occurs — keeping the emitted stat *set* identical to
    // the original per-retire string lookup — while repeat events cost
    // one array load instead of a string build plus map search.
    const unsigned k = static_cast<unsigned>(kind) - 1;
    Counter *&c = wishOutcome_[k][low ? 1 : 0][slot];
    if (!c) {
        static const char *const kKindName[] = {"jump", "join", "loop"};
        static const char *const kSlotName[] = {
            "correct", "mispred", "early_exit", "late_exit", "no_exit"};
        c = &stats_.counter(std::string("wish.") + kKindName[k] + "." +
                            (low ? "low." : "high.") + kSlotName[slot]);
    }
    return *c;
}

void
Core::retireWishStats(const DynInst &di)
{
    const WishKind kind = di.inst->wish;
    if (kind == WishKind::None)
        return;
    const bool low = di.fetchMode == FrontEndMode::LowConf;

    unsigned slot;
    if (kind == WishKind::Loop && low) {
        switch (di.loopOutcome) {
          case LoopOutcome::EarlyExit: slot = 2; break;
          case LoopOutcome::LateExit:  slot = 3; break;
          case LoopOutcome::NoExit:    slot = 4; break;
          case LoopOutcome::Correct:
          case LoopOutcome::NotApplicable:
          default:
            // NotApplicable: a low-confidence loop branch that resolved
            // in the predicted direction.
            slot = 0;
            break;
        }
    } else {
        slot = di.mispredicted ? 1 : 0;
    }
    ++wishOutcomeCounter(kind, low, slot);
}

// ---------------------------------------------------------------------
// Functional fast-forward
// ---------------------------------------------------------------------

/** threadedRun() observer of fastForward(). The functional stream is
 *  the correct path in order, so fetch, resolve and retire of a µop
 *  collapse into one step. */
struct Core::FastForwardHooks
{
    Core &core;
    /** The record of every control µop of the leg (see warmControl()). */
    DynInst di;

    void
    onInst(std::uint32_t pc, const Instruction &, bool)
    {
        core.decodeWish(pc);
    }

    void
    onBranch(std::uint32_t pc, const Instruction &in, bool taken)
    {
        if (core.warmControl(di, pc, taken, taken ? in.target : pc + 1))
            core.warmPredicatedBlock(di, pc);
    }

    void
    onCtrl(std::uint32_t pc, const Instruction &, std::uint32_t nextPc)
    {
        core.warmControl(di, pc, true, nextPc);
    }

    void
    onMem(Addr ea, unsigned, bool)
    {
        core.memsys_.tagAccess(ea);
    }
};

/**
 * Fetch, resolve and retire the executed control µop at pc in one
 * step. Only conditional branches go through the recovery rule: a
 * mispredicted indirect jump or return on the correct path keeps the
 * wish mode and predicate buffer the timing path's flush would clear.
 * Returns true when the front end predicated an actually-taken branch:
 * it fell through without a flush, fetching the skipped block as
 * nullified µops.
 *
 * 'di' is reused for every control µop of a leg, because zeroing a
 * fresh 360-byte DynInst per branch costs more than the rules do. That
 * is sound because each prediction field the rules read was written
 * earlier in the same µop's sequence (by processControl() or
 * resolveCondBranch()), except mispredicted on an indirect jump or
 * return, which is cleared here.
 */
bool
Core::warmControl(DynInst &di, std::uint32_t pc, bool taken,
                  std::uint32_t nextPc)
{
    di.pc = pc;
    di.inst = &code_[pc];
    di.pre = pre_[pc].flags;
    di.step.taken = taken;
    di.step.nextIndex = nextPc;
    di.mispredicted = false;
    processControl(di);
    bool flush = false;
    if (di.inst->op == Opcode::Br) {
        flush = resolveCondBranch(di).has_value();
        if (flush)
            repairFrontEnd(di);
    }
    retireControl(di);
    return taken && !di.predictedTaken && !flush;
}

/**
 * The core's front end fell through the predicated wish jump/join at
 * branchPc although the functional path took it, so it fetches the
 * skipped block as nullified µops. Those fetches are not inert: every
 * branch in the block predicts, shifts the history, trains as
 * not-taken and updates the confidence table. Walk the static image up
 * to the (forward) target as that fetch would. Nesting cannot recurse:
 * a nullified branch is never actually taken. The compiler never
 * places a non-Br control op inside an if-converted block; one would
 * redirect the core's fetch, so the walk stops there.
 */
void
Core::warmPredicatedBlock(DynInst &di, std::uint32_t branchPc)
{
    const std::uint32_t target = code_[branchPc].target;
    for (std::uint32_t i = branchPc + 1; i < target && i < codeSize_;
         ++i) {
        const std::uint16_t flags = pre_[i].flags;
        if ((flags & kPreCtrl) && !(flags & kPreCondBr))
            break;
        decodeWish(i);
        if (flags & kPreCondBr)
            warmControl(di, i, false, i + 1);
    }
}

void
Core::fastForward(std::uint64_t targetUops)
{
    if (haltRetired_ || targetUops <= retiredUops_)
        return;
    FastForwardHooks hooks{*this, {}};
    ThreadedResult r = threadedRun(*prog_, state_, fetchPc_,
                                   targetUops - retiredUops_, hooks);
    retiredUops_ += r.steps;
    *cRetired_ += r.steps;
    *cRetiredNops_ += r.predFalse;
    fetchPc_ = r.nextPc;
    haltRetired_ = r.halted;
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

SimResult
Core::run(const Program &prog)
{
    beginRun(prog);
    advance(std::numeric_limits<std::uint64_t>::max());
    return finishRun();
}

void
Core::beginRun(const Program &prog)
{
    resetMachine(prog);
    fetchQueue_.reset(fetchQueueCap_);
    rob_.reset(params_.robSize);

    // The attribution engine rides the run as one more probe sink,
    // attached only when the params opt in, so default runs register no
    // attrib.* statistics and pay no per-event cost.
    wisc_assert(!attrib_, "beginRun without a matching finishRun");
    externalSinks_ = nsinks_;
    attribStartCycle_ = 0;
    if (params_.collectAttribution || params_.collectBranchProfile) {
        attrib_.emplace(stats_, params_.collectAttribution,
                        params_.collectBranchProfile);
        addSink(&*attrib_);
    }
}

void
Core::beginFastForward(const Program &prog)
{
    wisc_assert(params_.dynPred != DynPredMode::MergePoint,
                "fast-forward cannot train the merge-point table; "
                "sample with dynPred=Off or FetchGate");
    resetMachine(prog);
}

/** Everything beginRun() and beginFastForward() share: predecode, reset
 *  the architectural and pipeline state, warm the text image. */
void
Core::resetMachine(const Program &prog)
{
    prog.validate();
    prog_ = &prog;
    code_ = prog.codeData();
    codeSize_ = static_cast<std::uint32_t>(prog.size());

    // Predecode the static image once: per-PC flags and execute
    // latencies replace per-fetch opcode-table walks.
    pre_.assign(codeSize_, PreDecode{});
    for (std::uint32_t i = 0; i < codeSize_; ++i) {
        const Instruction &si = code_[i];
        pre_[i].flags = predecodeFlags(si);
        unsigned lat;
        switch (si.instrClass()) {
          case InstrClass::IntMul: lat = params_.latMul; break;
          case InstrClass::IntDiv: lat = params_.latDiv; break;
          case InstrClass::Branch: lat = params_.latBranch; break;
          default: lat = params_.latAlu; break;
        }
        wisc_assert(lat > 0 && lat < 256, "execute latency out of range");
        pre_[i].exLat = static_cast<std::uint8_t>(lat);
    }

    state_.reset();
    state_.loadData(prog);
    fetchPc_ = prog.entry();
    fetchHalted_ = false;
    fetchStallUntil_ = 0;
    fetchFrozen_ = false;
    now_ = 0;
    haltRetired_ = false;
    retiredUops_ = 0;
    nextSeq_ = 1;
    nextUid_ = 1;
    iqCount_ = 0;
    readyList_.clear();
    readySorted_ = true;
    while (!events_.empty())
        events_.pop();
    std::fill(std::begin(regProducer_), std::end(regProducer_), 0);
    std::fill(std::begin(predProducer_), std::end(predProducer_), 0);
    while (!missHeap_.empty())
        missHeap_.pop();
    storesByWord_.clear();
    dynActive_ = false;
    dynRegionEnd_ = 0;
    dynRealPc_ = 0;
    dynOutstandingUid_ = 0;
    dynTriggerSeq_ = 0;
    merge_.reset();

    // Warm the instruction image: our kernels fit comfortably in the
    // 64 KB L1I, so a cold-start I-cache would only add noise.
    memsys_.warmText(kTextBase, codeSize_ * kInstBytes);
}

void
Core::beginRun(const Program &prog, const CoreCheckpoint &ckpt)
{
    beginRun(prog);

    wisc_assert(ckpt.paramsFingerprint == params_.fingerprint(),
                "checkpoint was taken under a different machine "
                "configuration");
    wisc_assert(ckpt.progFingerprint == prog.fingerprint(),
                "checkpoint was taken running a different program");

    now_ = ckpt.now;
    retiredUops_ = ckpt.retiredUops;
    fetchPc_ = ckpt.fetchPc;
    fetchHalted_ = ckpt.fetchHalted;
    fetchStallUntil_ = ckpt.fetchStallUntil;
    nextSeq_ = ckpt.nextSeq;
    nextUid_ = ckpt.nextUid;
    attribStartCycle_ = now_;

    wisc_assert(!ckpt.hasAttribShadow || attrib_,
                "checkpoint carries attribution shadow state but this "
                "run does not collect attribution");
    StateIO io(ckpt.bytes);
    ioWarmState(io, ckpt.hasAttribShadow);
    wisc_assert(io.done(), "checkpoint restore stopped at byte ",
                io.pos(), " of ", ckpt.bytes.size(),
                io.ok() ? ": save/restore walk mismatch"
                        : ": truncated, or a table sized for another "
                          "machine");
}

void
Core::ioWarmState(StateIO &io, bool attribShadow)
{
    state_.io(io);
    memsys_.io(io);
    bpred_->io(io);
    conf_->io(io);
    btb_.io(io);
    ras_.io(io);
    itc_.io(io);
    wish_.io(io);
    // The merge table is walked only in MergePoint mode; the params
    // fingerprint guard in beginRun makes save and restore symmetric. A
    // fast-forwarding core never writes it: beginFastForward() rejects
    // MergePoint.
    if (params_.dynPred == DynPredMode::MergePoint)
        merge_.io(io);
    if (attribShadow)
        attrib_->io(io);
}

void
Core::advance(std::uint64_t targetRetired, bool drain)
{
    fetchFrozen_ = false;
    while (!haltRetired_ && now_ < params_.maxCycles &&
           retiredUops_ < params_.maxRetired) {
        if (retiredUops_ >= targetRetired) {
            if (!drain)
                break;
            fetchFrozen_ = true;
        }
        if (fetchFrozen_ && rob_.empty() && fetchQueue_.empty())
            break;
        stageRetire();
        if (haltRetired_)
            break;
        stageComplete();
        stageIssue();
        stageRename();
        stageFetch();
        if (nsinks_)
            emitCycle();
        ++now_;
        ++*cCycles_;
    }
}

void
Core::checkpoint(CoreCheckpoint &out) const
{
    wisc_assert(rob_.empty() && fetchQueue_.empty(),
                "checkpoint requires a drained pipeline (advance() with "
                "drain, or a halted machine)");
    out.now = now_;
    out.retiredUops = retiredUops_;
    out.fetchPc = fetchPc_;
    out.fetchHalted = fetchHalted_;
    out.fetchStallUntil = fetchStallUntil_;
    out.nextSeq = nextSeq_;
    out.nextUid = nextUid_;
    out.paramsFingerprint = params_.fingerprint();
    out.progFingerprint = prog_->fingerprint();

    out.hasAttribShadow = attrib_.has_value();
    StateIO io;
    // Writing only reads the machine.
    const_cast<Core *>(this)->ioWarmState(io, out.hasAttribShadow);
    out.bytes = io.take();
}

SimResult
Core::finishRun()
{
    if (attrib_) {
        attrib_->finish(now_ - attribStartCycle_);
        nsinks_ = externalSinks_;
        attrib_.reset();
    }

    SimResult res;
    res.halted = haltRetired_;
    res.cycles = now_;
    res.retiredUops = retiredUops_;
    res.resultReg = state_.readReg(4);
    res.memFingerprint = state_.mem().fingerprint();

    if (params_.checkFinalState && res.halted) {
        Emulator ref;
        // The reference must be allowed at least as many steps as the
        // core retired, or a long-but-terminating run would trip the
        // halt check on a truncated (meaningless) emulation instead of
        // comparing real final states.
        // (saturating: a run that retired ~2^64 µops must not wrap the
        // budget to zero and fail the halt assertion spuriously).
        std::uint64_t steps = std::max<std::uint64_t>(
            Emulator::kDefaultMaxSteps,
            res.retiredUops == std::numeric_limits<std::uint64_t>::max()
                ? res.retiredUops
                : res.retiredUops + 1);
        EmuResult er = ref.run(*prog_, nullptr, steps);
        wisc_assert(er.halted,
                    "reference emulation did not halt within ", steps,
                    " steps though the core retired Halt after ",
                    res.retiredUops, " uops");
        wisc_assert(er.resultReg == res.resultReg,
                    "timing/functional result mismatch: ",
                    res.resultReg, " vs ", er.resultReg);
        wisc_assert(er.memFingerprint == res.memFingerprint,
                    "timing/functional memory mismatch");
    }
    return res;
}

SimResult
simulate(const Program &prog, const SimParams &params, StatSet &stats,
         const std::vector<ProbeSink *> &sinks)
{
    Core core(params, stats);
    for (ProbeSink *s : sinks)
        core.addSink(s);
    return core.run(prog);
}

} // namespace wisc
