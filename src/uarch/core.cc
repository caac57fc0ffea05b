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

} // namespace

Core::Core(const SimParams &params, StatSet &stats, const Program &prog)
    : Core(params, stats, prog, Unstarted{})
{
    state_.loadData(prog);
    fetchPc_ = prog.entry();
    // Warm the instruction image: our kernels fit comfortably in the
    // 64 KB L1I, so a cold-start I-cache would only add noise.
    memsys_.warmText(kTextBase, codeSize_ * kInstBytes);
}

Core::Core(const SimParams &params, StatSet &stats, const Program &prog,
           const CoreCheckpoint &ckpt)
    : Core(params, stats, prog, Unstarted{})
{
    wisc_assert(ckpt.paramsFingerprint == params_.fingerprint(),
                "checkpoint was taken under a different machine "
                "configuration");
    wisc_assert(ckpt.progFingerprint == prog.fingerprint(),
                "checkpoint was taken running a different program");
    StateIO io(ckpt.bytes);
    ioWarmState(io);
    wisc_assert(io.done(), "checkpoint restore stopped at byte ",
                io.pos(), " of ", ckpt.bytes.size(),
                io.ok() ? ": save/restore walk mismatch"
                        : ": truncated, or a table sized for another "
                          "machine");
    attribStartCycle_ = now_;
}

Core::Core(const SimParams &params, StatSet &stats, const Program &prog,
           Unstarted)
    : params_(params),
      stats_(stats),
      memsys_(params, stats),
      bpred_(makeBranchPredictor(params, stats)),
      btb_(params, stats),
      ras_(params.rasEntries),
      itc_(params.indirectEntries, params.indirectHistBits),
      conf_(makeConfidenceEstimator(params, stats, *bpred_)),
      wish_(stats, params.wishLoopBias),
      merge_(params.dynMergeEntries, params.dynMergeTrackUops),
      prog_(prog),
      code_(prog.codeData()),
      codeSize_(static_cast<std::uint32_t>(prog.size()))
{
    // With any of these at 0 no µop could ever retire, and the core
    // would spin until maxCycles.
    const std::pair<const char *, unsigned> atLeastOne[] = {
        {"robSize", params.robSize},
        {"fetchWidth", params.fetchWidth},
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

    prog.validate();
    // Predecode the static image once: per-PC flags and execute
    // latencies replace per-fetch opcode-table walks.
    pre_.resize(codeSize_);
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

    // The ROB plus the fetch queue, in which a µop that expands into a
    // select-µop pair holds two slots.
    uops_.reset(params_.robSize +
                fetchQueueCap_ *
                    (params_.predMech == PredMechanism::SelectUop ? 2 : 1));

    // The attribution engine rides the run as one more probe sink,
    // attached only when the params opt in, so default runs register no
    // attrib.* statistics and pay no per-event cost.
    if (params_.collectAttribution || params_.collectBranchProfile) {
        attrib_.emplace(stats_, params_.collectAttribution,
                        params_.collectBranchProfile);
        addSink(&*attrib_);
    }
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
    FetchProbe p{di.uid, di.pc, &instOf(di), c};
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
    const Instruction &si = instOf(di);
    RetireProbe p;
    p.uid = di.uid;
    p.seq = di.seq;
    p.pc = di.pc;
    p.cycle = now_;
    p.predFalse = !di.qpTrue;
    p.isCondBr = countedBranch(di);
    p.mispredicted = di.mispredicted;
    p.confValid = usesConfidence(di) && !params_.oracle.perfectCBP;
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
    p.robEmpty = uops_.renamed() == 0;
    p.renameBlocked = renameBlocked_;
    // The head facts are reported only when retirement actually
    // stopped on the head this cycle (not when it exhausted its width
    // or drained the ROB): only then is the head's stall reason what
    // limited the cycle. Retirement runs first in the cycle, so the
    // blocking µop is still the ROB head here.
    if (retireStalledOnHead_ && uops_.renamed() > 0) {
        const DynInst &h = uops_.front();
        const bool isLoad = h.isLoadOp() && !h.noMemAccess;
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
    if (uops_.renamed() == 0 || seq == 0)
        return nullptr;
    SeqNum base = uops_.front().seq;
    if (seq < base || seq >= base + uops_.renamed())
        return nullptr;
    return &uops_[static_cast<std::size_t>(seq - base)];
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
 * Build the dependence list and claim producer slots for a renamed µop.
 * Each operand role is stated once, read from the ISA list: the register
 * sources, the predicate sources, the old destination (§2.1) and the
 * qualifying predicate. The shapes below only choose which roles a µop
 * waits for, in which order: the C-style single µop (§2.1), the two
 * select-µop halves (§5.3.3, selectPart 1 = compute, 2 = select), a
 * predicted predicate (§3.5.3), the NO-DEPEND oracle and a dynamic
 * region's guard.
 */
void
Core::computeDeps(DynInst &di)
{
    const Instruction &si = instOf(di);

    // Every helper below is forced inline: rename runs them for every
    // µop, and GCC would otherwise call them from each shape.
    // 'pred' marks a predication-induced dependence (qualifying
    // predicate / old destination) in predDepMask for attribution.
    auto dep = [&](SeqNum s, bool pred = false)
                   __attribute__((always_inline)) {
        if (s != 0) {
            wisc_assert(di.numDeps < kMaxDeps,
                        "µop exceeds kMaxDeps producers");
            if (pred)
                di.predDepMask |= static_cast<std::uint8_t>(1u << di.numDeps);
            di.deps[di.numDeps++] = s;
        }
    };
    auto depReg = [&](RegIdx r, bool pred = false)
                      __attribute__((always_inline)) {
        if (r != kRegZero)
            dep(regProducer_[r], pred);
    };
    auto depPred = [&](PredIdx p, bool pred = false)
                       __attribute__((always_inline)) {
        if (p != 0)
            dep(predProducer_[p], pred);
    };
    auto regSources = [&]() __attribute__((always_inline)) {
        if (di.readsRs1())
            depReg(si.rs1);
        if (di.readsRs2())
            depReg(si.rs2);
    };
    auto predSources = [&]() __attribute__((always_inline)) {
        if (isPredOp(si.op))
            depPred(si.ps);
        if (opForm(si.op) == OpForm::PPP)
            depPred(si.ps2);
    };
    // A guarded write that does not happen leaves the old value, so a
    // guarded µop reads its destination (a clearing unc compare does
    // not).
    auto oldDest = [&]() __attribute__((always_inline)) {
        if (di.writesReg())
            depReg(si.rd, true);
        if (di.writesPred() && !si.unc) {
            depPred(si.pd, true);
            depPred(si.pd2, true);
        }
    };

    // A dynamically predicated region's trigger stands in for a
    // qualifying predicate over the whole region, so a region µop — on
    // or off the real path — depends on it while it is outstanding. The
    // uid test skips a younger region's trigger, opened after this µop's
    // own trigger resolved.
    if (di.dynRegion && dynTrigger_ && dynTrigger_->uid < di.uid)
        dep(dynTrigger_->seq, true);

    if (di.isCondBr()) {
        // A branch resolves against the *real* predicate value; a region
        // branch resolves but never redirects.
        depPred(si.qp);
        return;
    }
    if (di.selectPart == 2) {
        // Select half: picks the compute half's value or the old one
        // once the predicate resolves.
        dep(di.seq - 1);
        oldDest();
        depPred(si.qp, true);
    } else if (di.isCtrl() || si.instrClass() == InstrClass::Other) {
        // Jumps, calls, returns, nops and halts are not predicated here:
        // they read their sources (jmpr and ret their target register),
        // and a call claims its link register.
        regSources();
        claimProducers(di);
        return;
    } else if (params_.oracle.noDepend && si.qp != 0 && !di.dynRegion) {
        // NO-DEPEND oracle: the predicate value is known at rename.
        if (!di.qpTrue)
            return; // pure NOP: no deps, claims nothing
        regSources();
        predSources();
    } else if (di.hasPredQp) {
        // §3.5.3: the qualifying predicate is predicted; the µop is
        // shaped as if the predicate were already resolved. Predicted
        // TRUE, it reads what the NO-DEPEND TRUE shape reads; predicted
        // FALSE, it is a move of the old destination.
        if (di.predQpVal) {
            regSources();
            predSources();
        } else {
            oldDest();
        }
    } else {
        // C-style conditional expression (§2.1): the µop reads its
        // sources and, when guarded, the predicate and the old
        // destination. A region µop is always guarded: until the
        // trigger resolves, the hardware cannot know which side of the
        // hammock is real. A compute half executes unguarded and claims
        // nothing: its select half owns the result.
        regSources();
        if (di.selectPart == 0 && (si.qp != 0 || di.dynRegion)) {
            depPred(si.qp, true);
            oldDest();
        }
        predSources();
        if (di.selectPart == 1)
            return;
    }
    claimProducers(di);
}

void
Core::claimProducers(DynInst &di)
{
    const Instruction &si = instOf(di);
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

/** The store queue is in program order, so scanning it youngest-first,
 *  the first older store that overlaps is the youngest. */
const DynInst *
Core::youngestOlderStore(SeqNum seq, Addr addr, unsigned size) const
{
    for (auto it = storeQueue_.rbegin(); it != storeQueue_.rend(); ++it) {
        const DynInst *st = *it;
        if (st->seq < seq &&
            rangesOverlap(st->memAddr, st->memSize, addr, size))
            return st;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

DynInst *
Core::fetchOne(std::uint32_t idx)
{
    const Instruction &si = code_[idx];
    DynInst &di = uops_.push();
    di.uid = nextUid_++;
    di.fetchCycle = now_;
    di.pc = idx;
    di.pre = pre_[idx].flags;
    di.exLat = pre_[idx].exLat;
    di.fetchMode = FrontEndMode::Normal;
    di.loopOutcome = LoopOutcome::NotApplicable;
    di.selectPart = 0;
    di.predictorTaken = false;
    di.predictedTaken = false;
    di.highConf = false;
    di.mispredicted = false;
    di.hasPredQp = false;
    di.predQpVal = false;
    di.dynPredTrigger = false;
    di.dynRegion = dynActive_;
    di.dynNullified = false;
    di.dynOutcomeKnown = false;
    di.dynPredFailed = false;

    const UndoLog::Mark before = undo_.mark();
    StepResult step;
    if (dynActive_) {
        // Dynamically predicated region: fetch runs linearly to the
        // merge point; only the µop the real control flow is at
        // executes, the rest are nullified (predicated-FALSE NOPs).
        if (idx == dynRealPc_) {
            step = executeInst(si, idx, codeSize_, state_, &undo_);
            dynRealPc_ = step.nextIndex;
        } else {
            di.dynNullified = true;
            step.qpTrue = false;
            step.nextIndex = idx + 1;
            ++*dynNullifiedUops_;
        }
        ++*dynRegionUops_;
    } else {
        step = executeInst(si, idx, codeSize_, state_, &undo_);
    }
    di.undoEnd = undo_.mark();
    di.qpTrue = step.qpTrue;
    di.taken = step.taken;
    di.halted = step.halted;
    di.nextIndex = step.nextIndex;
    di.memAddr = step.memAddr;
    di.memSize = step.memSize;
    di.noMemAccess = di.isMemOp() && !step.qpTrue;

    // NO-FETCH oracle (Figure 2): fetch executed a predicated-FALSE µop,
    // but it costs no bandwidth and never enters the pipe (except an
    // unconditional compare, whose clearing writes are architectural).
    const bool elided = params_.oracle.noFetch && !di.qpTrue &&
                        !di.isCtrl() && !(si.unc && di.writesPred());

    // Predicate-prediction capture (§3.5.3), before this µop's own
    // buffer maintenance. Region µops skip the capture: their
    // dependence shape is fixed by the region (guarded by the trigger),
    // not by the §3.5.3 buffer.
    if (params_.wishEnabled && si.qp != 0 && !di.dynRegion) {
        auto v = wish_.predictedPredicate(si.qp);
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
        if (di.dynPredTrigger)
            dynTrigger_ = &di; // the branch opened a region
        fetchPc_ = di.predictedTarget;
    } else {
        fetchPc_ = idx + 1;
    }

    if (di.halted)
        fetchHalted_ = true;

    ++*cFetched_;
    if (elided) {
        uops_.pop_back();
        return nullptr;
    }
    ++fetchedUops_;
    if (nsinks_)
        emitFetch(di, now_);

    // Select-µop expansion (§5.3.3) is known here, so the select half
    // gets the slot right after its compute half now: rename then
    // writes both in place. It becomes a µop of its own, with its own
    // uid and fetch probe, only at rename.
    if (params_.predMech == PredMechanism::SelectUop &&
        (di.pre & kPreSelectShape) && !params_.oracle.noDepend &&
        !di.hasPredQp && !di.dynRegion) {
        di.selectPart = 1;
        DynInst &sel = uops_.push();
        static_cast<FetchedUop &>(sel) = di;
        sel.selectPart = 2;
        sel.noMemAccess = true; // a split load's compute half accesses
        di.undoEnd = before;    // effects commit with the select half
    }
    return &di;
}

/**
 * May the low-confidence normal branch at 'idx' open a dynamically
 * predicated region ending at 'merge'? Structural conditions only —
 * confidence and the merge-table prediction were already consulted.
 */
bool
Core::dynCanTrigger(std::uint32_t idx, std::uint32_t merge) const
{
    if (dynTrigger_)
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
    wisc_assert(dynTrigger_, "dynamic-predication trigger vanished "
                             "mid-region");
    dynTrigger_->dynOutcomeKnown = true;
    dynTrigger_->dynPredFailed = dynRealPc_ != dynRegionEnd_;
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
Core::processControl(FetchedUop &di)
{
    const Instruction &si = instOf(di);
    const std::uint32_t idx = di.pc;
    const auto &oracle = params_.oracle;
    FetchStall stall = FetchStall::None;

    switch (si.op) {
      case Opcode::Br: {
        bool predictorTaken = bpred_->predict(idx, di.ckpt);
        bool effective = predictorTaken;
        di.fetchMode = FrontEndMode::Normal;

        if (oracle.perfectCBP) {
            // A certain prediction: nothing is estimated.
            predictorTaken = di.taken;
            effective = di.taken;
            di.highConf = true;
        } else {
            if (usesConfidence(di))
                di.highConf = oracle.perfectConfidence
                                  ? predictorTaken == di.taken
                                  : conf_->estimate(idx,
                                                    di.ckpt.globalHistory);
            if (params_.wishEnabled && si.wish != WishKind::None) {
                WishDecision d = wish_.onWishBranch(
                    idx, si.wish, si.qp, predictorTaken, di.highConf,
                    si.target);
                effective = d.effectiveTaken;
                di.fetchMode = d.branchMode;
                di.highConf = d.highConfidence;
            } else if (!di.highConf &&
                       params_.dynPred == DynPredMode::FetchGate) {
                // Dynamic predication's cheap fallback for a
                // low-confidence compiler-unmarked branch: stall fetch
                // instead of predicating.
                stall = FetchStall::Gate;
                ++*dynFetchGates_;
            } else if (!di.highConf &&
                       params_.dynPred == DynPredMode::MergePoint) {
                // The hardware counterpart of a wish branch.
                auto merge = merge_.predict(idx, params_.dynMergeMinConf);
                if (merge && dynCanTrigger(idx, *merge)) {
                    // Open the region: force fall-through and predicate
                    // everything up to the merge point on this branch.
                    di.dynPredTrigger = true;
                    effective = false;
                    dynActive_ = true;
                    dynRegionEnd_ = *merge;
                    dynRealPc_ = di.nextIndex;
                    ++*dynTriggers_;
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
            tgt = di.nextIndex;
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
            tgt = di.nextIndex;
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
    if (fetchedUops_ >= fetchQueueCap_)
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
        if (fetchedUops_ >= fetchQueueCap_)
            break;

        std::uint32_t idx = fetchPc_;
        if (pre_[idx].flags & kPreCondBr) {
            if (condBrs >= params_.maxCondBrPerFetch)
                break;
            ++condBrs;
        }

        ++processed;
        const DynInst *di = fetchOne(idx);
        if (!di)
            continue; // NO-FETCH dropped it: no fetch slot used

        --slots;
        // Fetch ends at the first predicted-taken control transfer.
        if (di->isCtrl() && di->predictedTaken)
            break;
        if (di->halted)
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
    const Cycle delay = params_.frontEndDelay();
    while (renamed < params_.decodeWidth && fetchedUops_ > 0) {
        DynInst &di = uops_.firstUnrenamed();
        if (di.fetchCycle + delay > now_)
            break;

        const unsigned need = di.selectPart == 1 ? 2 : 1;
        if (uops_.renamed() + need > params_.robSize ||
            iqCount_ + need > params_.iqSize) {
            renameBlocked_ = true;
            break;
        }
        --fetchedUops_;

        // A compute half (selectPart 1) executes the operation
        // unconditionally into a temporary and carries the memory
        // access.
        renameOne(di);
        if (need == 2) {
            // Select half: picks new vs old value once the predicate
            // resolves; owns the architectural effects.
            DynInst &sel = uops_.firstUnrenamed();
            sel.uid = nextUid_++; // the select half is a distinct µop
            renameOne(sel);
            if (nsinks_) {
                emitFetch(sel, sel.fetchCycle);
                emitRename(di);
                emitRename(sel);
            }
        } else if (nsinks_) {
            emitRename(di);
        }
        renamed += need;
    }
}

/** Rename the oldest unrenamed µop, di, in place: it joins the ROB and
 *  the scheduler. The fields past FetchedUop are written here, except
 *  those valid only under a condition (a wait-chain link, a claimed
 *  destination, the completion cycle), which are written when the
 *  condition first holds. */
void
Core::renameOne(DynInst &di)
{
    uops_.rename();
    di.seq = nextSeq_++;
    di.numDeps = 0;
    di.predDepMask = 0;
    di.wakeHead = 0;
    di.claimsReg = false;
    di.claimedPred[0] = kPredNone;
    di.claimedPred[1] = kPredNone;
    di.inIQ = true;
    di.issued = false;
    di.completed = false;
    di.l1Missed = false;
    di.lastWaitPred = false;
    computeDeps(di);
    ++iqCount_;
    if (di.isStoreOp() && !di.noMemAccess)
        storeQueue_.push_back(&di);
    scheduleOrReady(di);
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
    const bool isLoad = di.isLoadOp() && !di.noMemAccess;
    const bool isStore = di.isStoreOp() && !di.noMemAccess;
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
    const std::size_t n = uops_.renamed();
    for (std::size_t i = 0; i < n && issued < params_.issueWidth; ++i) {
        DynInst &di = uops_[i];
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
        if (di == dynTrigger_ && dynActive_) {
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
    const Instruction &si = instOf(di);

    if (si.op == Opcode::Jmp || si.op == Opcode::Call)
        return; // direct and unconditional: resolved at fetch

    if (si.op == Opcode::JmpR || si.op == Opcode::Ret) {
        std::uint32_t actual = di.nextIndex;
        di.mispredicted = di.predictedTarget != actual;
        if (di.mispredicted)
            flushAfter(di, actual, FlushCause::Normal);
        return;
    }

    if (auto cause = resolveCondBranch(di))
        flushAfter(di, di.nextIndex, *cause);
}

/**
 * The recovery rule for a resolved conditional branch (§3.5.4):
 * records whether the raw prediction was wrong and the wish-loop
 * outcome, and returns why the branch must flush, or nothing when the
 * front end's path stands.
 */
WISC_ALWAYS_INLINE std::optional<FlushCause>
Core::resolveCondBranch(FetchedUop &di)
{
    const Instruction &si = instOf(di);
    const bool actual = di.taken;
    di.mispredicted = di.predictorTaken != actual;

    if (di.dynPredTrigger) {
        // Dynamic-predication trigger: the region outcome — stamped by
        // dynEndRegion() before the deferred completion could fire —
        // decides between "predication worked, no flush" and "the real
        // path never reconverged, flush like a plain misprediction".
        wisc_assert(di.dynOutcomeKnown,
                    "trigger resolved before its region ended");
        wisc_assert(&di == dynTrigger_,
                    "a trigger resolved outside its open region");
        merge_.noteOutcome(di.pc, di.dynPredFailed, di.mispredicted);
        dynTrigger_ = nullptr;
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
Core::repairFrontEnd(const FetchedUop &branch)
{
    if (instOf(branch).op == Opcode::Br)
        bpred_->recover(branch.pc, branch.taken, branch.ckpt);
    ras_.restore(branch.rasCkpt);
    wish_.onFlush();
}

void
Core::flushAfter(const DynInst &branch, std::uint32_t redirectPc,
                 FlushCause cause)
{
    ++*cFlushes_;
    std::size_t squashed = fetchedUops_;

    // Dynamic predication: while a region is open every possible flush
    // source is older than the trigger (region µops never flush and
    // younger µops do not exist yet), so the trigger is squashed. After
    // the region ended the trigger survives flushes from younger
    // branches; uids are fetch-ordered, so the comparison decides. It
    // is made before the squash reuses the slots.
    if (dynTrigger_) {
        wisc_assert(!dynActive_ || branch.uid < dynTrigger_->uid,
                    "flush from inside an open dynamic region");
        if (branch.uid < dynTrigger_->uid) {
            dynTrigger_ = nullptr;
            dynActive_ = false;
        }
    }

    if (nsinks_)
        emitFlush(branch, cause);

    // Everything in the fetch queue is younger than anything renamed. A
    // select half's reserved slot was never reported as fetched.
    if (nsinks_)
        for (std::size_t i = uops_.renamed(); i < uops_.size(); ++i)
            if (uops_[i].selectPart != 2)
                emitSquash(uops_[i]);
    uops_.dropUnrenamed();
    fetchedUops_ = 0;

    // Squash renamed µops younger than the branch, restoring the rename
    // producer chains newest-first and repairing the wakeup chains.
    while (!uops_.empty() && uops_.back().seq > branch.seq) {
        DynInst &di = uops_.back();
        if (nsinks_)
            emitSquash(di);
        unlinkWaiter(di);
        // All of this µop's waiters are younger and already unlinked.
        wisc_assert(di.wakeHead == 0,
                    "squashed producer still has waiters");
        if (di.inIQ)
            --iqCount_;
        if (di.isStoreOp() && !di.noMemAccess) {
            wisc_assert(!storeQueue_.empty() && storeQueue_.back() == &di,
                        "squashed store is not the youngest in the queue");
            storeQueue_.pop_back();
        }
        if (di.claimsReg)
            regProducer_[di.claimedReg] = di.prevRegProducer;
        for (unsigned s = 0; s < 2; ++s)
            if (di.claimedPred[s] != kPredNone)
                predProducer_[di.claimedPred[s]] =
                    di.prevPredProducer[s];
        uops_.pop_back();
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
    for (std::size_t i = 0; i < uops_.size(); ++i)
        wisc_assert(uops_[i].seq == uops_.front().seq + i,
                    "ROB seq density violated after flush at index ", i);
#endif

    // Roll speculative architectural state back to just after the
    // branch executed.
    undo_.rollbackTo(branch.undoEnd, state_);
    repairFrontEnd(branch);

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
    while (retired < params_.retireWidth && uops_.renamed() > 0) {
        DynInst &di = uops_.front();
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
            merge_.onRetire(di.pc, di.nextIndex, di.isCondBr(),
                            instOf(di).target);

        if (di.isStoreOp() && !di.noMemAccess) {
            memsys_.tagAccess(di.memAddr);
            wisc_assert(!storeQueue_.empty() && storeQueue_.front() == &di,
                        "retiring store is not the oldest in the queue");
            storeQueue_.pop_front();
        }

        undo_.commitTo(di.undoEnd);

        if (!di.qpTrue)
            ++*cRetiredNops_;
        ++retiredUops_;
        ++*cRetired_;

        if (nsinks_)
            emitRetire(di);

        bool halt = di.halted;
        uops_.pop_front();
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
Core::retireControl(const FetchedUop &di)
{
    const Instruction &si = instOf(di);
    if (countedBranch(di)) {
        ++*cCondBranches_;
        bpred_->train(di.pc, di.taken, di.ckpt);
        if (di.mispredicted)
            ++*cMispredicts_;
        // The estimator trains on the branches whose confidence fetch
        // consults, with the fetch-time history the estimate used. It
        // trains under PERFECT-CBP too, where fetch asks no estimate.
        if (usesConfidence(di))
            conf_->update(di.pc, di.ckpt.globalHistory, !di.mispredicted);
        if (params_.wishEnabled && si.wish != WishKind::None)
            retireWishStats(di);
    } else if (si.op == Opcode::JmpR) {
        itc_.update(di.pc, di.ckpt.globalHistory, di.nextIndex);
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
Core::retireWishStats(const FetchedUop &di)
{
    const WishKind kind = instOf(di).wish;
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
    FetchedUop di;

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
 * 'di' is zeroed once per leg and reused for every control µop of it,
 * as a ring slot is reused without being cleared. That is sound
 * because each field the rules read was written earlier in the same
 * µop's sequence: pc, pre, taken and nextIndex here, the prediction
 * fields by processControl() or resolveCondBranch(), and mispredicted,
 * which only a conditional branch's resolution writes, is cleared here.
 * The dynamic-region flags stay false: fast-forward rejects MergePoint.
 */
bool
Core::warmControl(FetchedUop &di, std::uint32_t pc, bool taken,
                  std::uint32_t nextPc)
{
    di.pc = pc;
    di.pre = pre_[pc].flags;
    di.taken = taken;
    di.nextIndex = nextPc;
    di.mispredicted = false;
    processControl(di);
    bool flush = false;
    if (code_[pc].op == Opcode::Br) {
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
Core::warmPredicatedBlock(FetchedUop &di, std::uint32_t branchPc)
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
    wisc_assert(params_.dynPred != DynPredMode::MergePoint,
                "fast-forward cannot train the merge-point table; "
                "sample with dynPred=Off or FetchGate");
    if (haltRetired_ || targetUops <= retiredUops_)
        return;
    FastForwardHooks hooks{*this, {}};
    ThreadedResult r = threadedRun(prog_, state_, fetchPc_,
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
Core::run()
{
    advance(std::numeric_limits<std::uint64_t>::max());
    return finishRun();
}

void
Core::ioWarmState(StateIO &io)
{
    state_.io(io);
    memsys_.io(io);
    bpred_->io(io);
    conf_->io(io);
    btb_.io(io);
    ras_.io(io);
    itc_.io(io);
    wish_.io(io);
    // The merge table is walked only in MergePoint mode and the
    // attribution shadow only when the params attach the engine; the
    // params fingerprint guard makes save and restore symmetric. A
    // fast-forwarding core's engine sees no probe, so it writes the
    // initial shadow.
    if (params_.dynPred == DynPredMode::MergePoint)
        merge_.io(io);
    if (attrib_)
        attrib_->io(io);
    // The fill ledger's ready cycles are absolute, so the clock comes
    // with it. The allocators continue across the boundary: retirement
    // ordering and the attribution flush shadow compare seq numbers.
    io(now_, retiredUops_, fetchPc_, fetchHalted_, fetchStallUntil_,
       nextSeq_, nextUid_);
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
        if (fetchFrozen_ && uops_.empty())
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
    wisc_assert(uops_.empty(),
                "checkpoint requires a drained pipeline (advance() with "
                "drain, or a halted machine)");
    out.paramsFingerprint = params_.fingerprint();
    out.progFingerprint = prog_.fingerprint();
    StateIO io;
    // Writing only reads the machine.
    const_cast<Core *>(this)->ioWarmState(io);
    out.bytes = io.take();
}

SimResult
Core::finishRun()
{
    if (attrib_)
        attrib_->finish(now_ - attribStartCycle_);

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
        EmuResult er = ref.run(prog_, nullptr, steps);
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
    Core core(params, stats, prog);
    for (ProbeSink *s : sinks)
        core.addSink(s);
    return core.run();
}

} // namespace wisc
