#include "uarch/fastfwd.hh"

#include "arch/threaded.hh"
#include "common/log.hh"

namespace wisc {

namespace {

/** Warming observer for threadedRun(): mirrors the core's correct-path
 *  updates to the predictor substrate (processControl + stageRetire),
 *  collapsed to fetch≡retire since the functional stream is in-order
 *  and never wrong-path. */
struct WarmHooks
{
    const SimParams &params;
    IBranchPredictor &bpred;
    IConfidence &conf;
    Btb &btb;
    ReturnAddressStack &ras;
    IndirectTargetCache &itc;
    MemorySystem &memsys;
    WishEngine &wish;
    const Instruction *code;
    std::uint32_t codeSize;

    void
    onInst(std::uint32_t pc, const Instruction &in, bool)
    {
        // Decode-side wish bookkeeping, exactly as Core::fetchOne():
        // the mode-exit "target fetched" check per instruction, plus
        // the predicate buffer's complement map and write invalidation.
        wish.onInstructionFetched(pc);
        if (isCompare(in.op))
            wish.noteCompare(in.pd, in.pd2);
        if (in.writesPred()) {
            wish.notePredWrite(in.pd);
            wish.notePredWrite(in.pd2);
        }
    }

    void
    onBranch(std::uint32_t pc, const Instruction &in, bool taken)
    {
        if (warmBranch(pc, in, taken))
            walkNullifiedBlock(pc, in.target);
    }

    /**
     * predict → wish decision → speculative shift → train, like the
     * core. The shifted direction must be the core's *net* history
     * convention: the effective (front-end) direction, repaired to the
     * actual outcome only where the core would flush and recover the
     * predictor. A correctly-predicated low-confidence wish jump/join
     * never flushes, so its history bit stays "fall through" even when
     * the branch was actually taken — warming with actual outcomes
     * instead would index every history-keyed table under histories
     * the core never produces, and restored windows would
     * over-predicate.
     *
     * Returns true when the branch was predicated (effective fall
     * through) but actually taken: the core's front end then fetches
     * the skipped block as nullified µops, and the caller must walk it
     * so its branches warm the same tables the core's do.
     */
    bool
    warmBranch(std::uint32_t pc, const Instruction &in, bool taken)
    {
        BpredCheckpoint ckpt;
        bool predictorTaken = bpred.predict(pc, ckpt);
        if (params.oracle.perfectCBP)
            predictorTaken = taken;

        bool effective = predictorTaken;
        FrontEndMode mode = FrontEndMode::Normal;
        const bool isWish = !params.oracle.perfectCBP &&
                            params.wishEnabled &&
                            in.wish != WishKind::None;
        std::uint32_t loopInst = 0;
        if (isWish) {
            const bool highConf =
                params.oracle.perfectConfidence
                    ? (predictorTaken == taken)
                    : conf.estimate(pc, ckpt.globalHistory);
            wish.setBranchPredicate(in.qp);
            loopInst = wish.loopInstance(pc);
            WishDecision d = wish.onWishBranch(pc, in.wish,
                                               predictorTaken, highConf,
                                               in.target);
            effective = d.effectiveTaken;
            mode = d.branchMode;
        }

        // Would the core flush this branch? (resolveBranch(), collapsed
        // to in-order resolve-at-fetch: no flush when the effective
        // direction is right, for predicated jump/join mispredictions,
        // or for a wish-loop late exit.)
        bool flush = false;
        if (effective != taken) {
            if (!isWish || mode != FrontEndMode::LowConf)
                flush = true;
            else if (in.wish == WishKind::Loop)
                flush = taken || wish.loopInstance(pc) == loopInst;
        }

        bpred.updateSpeculative(pc, flush ? taken : effective);
        bpred.train(pc, taken, ckpt);
        // lookup-then-insert keeps the BTB LRU clock in step with the
        // core's access pattern.
        btb.lookup(pc);
        btb.insert(pc, in.target, in.wish, true);
        if (params.wishEnabled && in.wish != WishKind::None)
            conf.update(pc, ckpt.globalHistory, predictorTaken == taken);
        if (flush)
            wish.onFlush();

        return isWish && in.wish != WishKind::Loop && !effective &&
               taken && !flush;
    }

    /**
     * A predicated wish jump/join that is actually taken: the
     * functional path jumps to the target, but the core's front end
     * falls through and fetches the whole skipped block as nullified
     * µops. Those fetches are not inert — every branch in the block
     * predicts, shifts the global history, trains as not-taken, and
     * updates the confidence table — so the warmed tables must see
     * them too. Walk the static image from the branch to its (forward)
     * target exactly as the core's fetch would. Nested predicated
     * skips cannot recurse: a nullified branch is never "actually
     * taken". A non-Br control op would redirect the core's fetch off
     * the linear path; the compiler never places one inside an
     * if-converted block, so simply stop there.
     */
    void
    walkNullifiedBlock(std::uint32_t from, std::uint32_t target)
    {
        for (std::uint32_t i = from + 1; i < target && i < codeSize;
             ++i) {
            const Instruction &blk = code[i];
            if (blk.isControl() && blk.op != Opcode::Br)
                break;
            onInst(i, blk, false);
            if (blk.op == Opcode::Br)
                warmBranch(i, blk, false);
        }
    }

    void
    onCtrl(std::uint32_t pc, const Instruction &in, std::uint32_t nextPc)
    {
        switch (in.op) {
          case Opcode::Jmp:
            btb.lookup(pc);
            btb.insert(pc, in.target, WishKind::None, false);
            break;
          case Opcode::Call:
            btb.lookup(pc);
            btb.insert(pc, in.target, WishKind::None, false);
            ras.push(pc + 1);
            break;
          case Opcode::Ret:
            ras.pop();
            break;
          case Opcode::JmpR:
            itc.update(pc, bpred.globalHistory(), nextPc);
            break;
          default:
            break;
        }
    }

    void
    onMem(Addr ea, unsigned, bool isStore)
    {
        if (isStore)
            memsys.warmStore(ea);
        else
            memsys.warmLoad(ea);
    }
};

} // namespace

FastForward::FastForward(const Program &prog, const SimParams &params)
    : prog_(prog),
      params_(params),
      memsys_(params_, stats_),
      bpred_(makeBranchPredictor(params_, stats_)),
      btb_(params_, stats_),
      ras_(params_.rasEntries),
      itc_(params_.indirectEntries, params_.indirectHistBits, stats_),
      conf_(makeConfidenceEstimator(params_, stats_, *bpred_)),
      wish_(stats_, params_.wishLoopBias),
      pc_(prog.entry())
{
    prog.validate();
    state_.loadData(prog);
    memsys_.warmText(kTextBase,
                     static_cast<Addr>(prog.size()) * kInstBytes);
}

void
FastForward::advanceTo(std::uint64_t targetUops)
{
    if (halted_ || targetUops <= uops_)
        return;
    WarmHooks hooks{params_,
                    *bpred_,
                    *conf_,
                    btb_,
                    ras_,
                    itc_,
                    memsys_,
                    wish_,
                    prog_.codeData(),
                    static_cast<std::uint32_t>(prog_.size())};
    ThreadedResult r =
        threadedRun(prog_, state_, pc_, targetUops - uops_, hooks);
    uops_ += r.steps;
    predFalse_ += r.predFalse;
    pc_ = r.nextPc;
    halted_ = r.halted;
}

void
FastForward::checkpoint(CoreCheckpoint &out) const
{
    out.now = 0;
    out.retiredUops = uops_;
    out.fetchPc = pc_;
    out.fetchHalted = false;
    out.fetchStallUntil = 0;
    out.nextSeq = 1;
    out.nextUid = 1;
    out.hasWish = true;
    out.hasAttribShadow = false;
    out.paramsFingerprint = params_.fingerprint();
    out.progFingerprint = prog_.fingerprint();

    ByteWriter w;
    state_.saveState(w);
    memsys_.saveState(w);
    bpred_->saveState(w);
    conf_->saveState(w);
    btb_.saveState(w);
    ras_.saveState(w);
    itc_.saveState(w);
    wish_.saveState(w);
    out.bytes = w.take();
}

} // namespace wisc
