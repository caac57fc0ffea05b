/**
 * @file
 * The cycle-level out-of-order core (Table 2 baseline).
 *
 * Execution model: execute-at-fetch with undo-log rollback. Every
 * fetched µop is functionally executed against the speculative
 * architectural state the moment it is fetched, recording undo entries;
 * a pipeline flush rolls the state back to just after the mispredicted
 * branch. This models wrong-path execution (including wrong-path cache
 * pollution) exactly, and lets late-exit wish-loop iterations retire as
 * predicated NOPs precisely as §3.2 describes.
 *
 * Timing model: cycle-driven. Fetch follows predictions (8-wide, at most
 * 3 conditional branches, ends at the first predicted-taken branch, one
 * I-cache line per cycle); µops traverse a configurable-depth front end,
 * rename into a 512-entry ROB + unified scheduler, issue oldest-first up
 * to 8 per cycle (4 memory ports) when their producers have completed,
 * and retire 8-wide in order. Branches resolve at execute; recovery
 * follows the wish-branch rules of §3.5.4.
 *
 * Scheduling is event-driven (DESIGN.md §7): a renamed µop waits on one
 * outstanding producer at a time via an intrusive doubly-linked wait
 * chain; when a producer completes it walks its chain, and consumers
 * whose remaining producers are all complete move to a ready list that
 * issue drains oldest-first. The poll-based issue loop is retained
 * behind SimParams::pollScheduler purely as a verification reference.
 * µops live in fixed ring buffers, reference the immutable Program
 * image by pointer, and carry a bounded inline dependence array — the
 * per-cycle hot path performs no heap allocation.
 *
 * The same core also fast-forwards functionally for sampled simulation
 * (fastForward()): the threaded engine runs over the core's own
 * architectural state, and each branch or control transfer goes
 * through the front-end, recovery and retire rules the cycle loop
 * uses, so the predictor, confidence, BTB/RAS/ITC, wish-engine and
 * cache state it leaves behind is what checkpoint() captures.
 */

#ifndef WISC_UARCH_CORE_HH_
#define WISC_UARCH_CORE_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "arch/executor.hh"
#include "arch/state.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "isa/program.hh"
#include "uarch/attribution.hh"
#include "uarch/bpred.hh"
#include "uarch/bpred_iface.hh"
#include "uarch/cache.hh"
#include "uarch/checkpoint.hh"
#include "uarch/mergepoint.hh"
#include "uarch/params.hh"
#include "uarch/probe.hh"
#include "uarch/wish.hh"

namespace wisc {

/** Wish-loop misprediction classes (§3.2). */
enum class LoopOutcome : std::uint8_t
{
    NotApplicable,
    Correct,
    EarlyExit,
    LateExit,
    NoExit,
};

/** Maximum producers of one µop: two register sources, the qualifying
 *  predicate, the old destination (register or two predicate targets),
 *  two predicate sources, and the select-half link. The C-style shapes
 *  computeDeps() emits never exceed 6; 8 leaves slack and keeps the
 *  array pow2-sized. Exceeding it is a hard error (wisc_assert). */
inline constexpr unsigned kMaxDeps = 8;

/** One in-flight µop. Flat (no heap-owning members): ring-buffer slots
 *  are reused in place and DynInst moves are plain field copies. */
struct DynInst
{
    SeqNum seq = 0;
    /** Unique id, never reused (seq numbers are reused after a flush);
     *  completion events are validated against it. */
    std::uint64_t uid = 0;
    std::uint32_t pc = 0;
    /** The static instruction, aliasing the immutable Program image. */
    const Instruction *inst = nullptr;
    /** Predecoded PreFlag mask for *inst (computed once per static
     *  instruction per run, not per fetch). */
    std::uint16_t pre = 0;
    /** Predecoded non-memory execute latency (cycles). */
    std::uint8_t exLat = 1;

    // Functional (execute-at-fetch) results.
    StepResult step;
    UndoLog::Mark undoStart = 0;
    UndoLog::Mark undoEnd = 0;

    // Branch prediction state.
    bool predictorTaken = false; ///< raw predictor output
    bool predictedTaken = false; ///< effective front-end direction
    std::uint32_t predictedTarget = 0;
    bool highConf = false;
    FrontEndMode fetchMode = FrontEndMode::Normal;
    BpredCheckpoint ckpt;
    RasCheckpoint rasCkpt;
    LoopOutcome loopOutcome = LoopOutcome::NotApplicable;
    std::uint32_t loopInstance = 0; ///< wish-loop instance at fetch
    bool mispredicted = false; ///< raw prediction was wrong (stats)

    // Select-µop expansion: 1 = compute half, 2 = select half.
    std::uint8_t selectPart = 0;

    // Dynamic predication (DynPredMode::MergePoint).
    /** Low-confidence normal branch that opened a dynamically
     *  predicated region (the hardware analog of a wish jump). */
    bool dynPredTrigger = false;
    /** Fetched inside a dynamically predicated region: guarded by the
     *  trigger, never redirects fetch, never flushes. */
    bool dynRegion = false;
    /** Region µop off the real path: retires as a predicated NOP. */
    bool dynNullified = false;
    /** Region fetch reached the merge point; dynPredFailed is valid. */
    bool dynOutcomeKnown = false;
    /** Real control flow never reconverged at the predicted merge
     *  point: the trigger must flush like a plain misprediction. */
    bool dynPredFailed = false;

    // Predicate prediction captured at fetch (§3.5.3 buffer hit).
    bool hasPredQp = false;
    bool predQpVal = false;

    // Dependence tracking: bounded inline producer list.
    std::uint8_t numDeps = 0;
    SeqNum deps[kMaxDeps] = {};
    /** Bit i set iff deps[i] is predication-induced — the qualifying
     *  predicate or the old destination value, exactly the dependences
     *  the NO-DEPEND oracle removes. Feeds cycle attribution only. */
    std::uint8_t predDepMask = 0;

    // Wakeup state. A waiting µop is linked into exactly one producer's
    // wait chain (the first still-outstanding producer); when that
    // producer completes the consumer re-scans its remaining producers
    // and either re-links or becomes ready. Links are seq numbers (0 =
    // none) resolved through the dense ROB, and chains are repaired
    // eagerly on squash, so they never contain dead entries.
    SeqNum waitingOn = 0;  ///< producer this µop is linked under
    /** The dependence this µop most recently waited under was
     *  predication-induced, directly or transitively through the
     *  producer it waited on (attribution head classification). */
    bool lastWaitPred = false;
    SeqNum chainPrev = 0;  ///< older neighbor (0 = chain head)
    SeqNum chainNext = 0;  ///< next consumer in the same chain
    SeqNum wakeHead = 0;   ///< head of this µop's own consumer chain

    // Rename bookkeeping (undone newest-first on flush).
    SeqNum prevRegProducer = 0;
    RegIdx claimedReg = 0;
    bool claimsReg = false;
    SeqNum prevPredProducer[2] = {0, 0};
    PredIdx claimedPred[2] = {kPredNone, kPredNone};

    // Timing.
    Cycle fetchCycle = 0;
    Cycle renameReady = 0; ///< fetch cycle + front-end delay
    bool inIQ = false;
    bool issued = false;
    bool completed = false;
    bool l1Missed = false; ///< issued load missed in the L1D
    Cycle completeCycle = 0;

    // Memory.
    bool memSkipped = false; ///< predicated-off: no access
    Addr memAddr = 0;
    std::uint8_t memSize = 0;

    bool isCtrl() const { return pre & kPreCtrl; }
    bool isCondBr() const { return pre & kPreCondBr; }
    bool isLoadOp() const { return pre & kPreLoad; }
    bool isStoreOp() const { return pre & kPreStore; }
    bool isMemOp() const { return pre & kPreMem; }
    bool writesReg() const { return pre & kPreWritesReg; }
    bool writesPred() const { return pre & kPreWritesPred; }
    bool readsRs1() const { return pre & kPreReadsRs1; }
    bool readsRs2() const { return pre & kPreReadsRs2; }
};

/** Summary of one simulation run. */
struct SimResult
{
    bool halted = false;
    Cycle cycles = 0;
    std::uint64_t retiredUops = 0;
    Word resultReg = 0;
    std::uint64_t memFingerprint = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(retiredUops) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

class Core
{
  public:
    Core(const SimParams &params, StatSet &stats);

    /** Run the program to completion (Halt retired) or a safety limit.
     *  Exactly equivalent to beginRun(prog) + advance(UINT64_MAX) +
     *  finishRun(). */
    SimResult run(const Program &prog);

    // --- incremental driving (sampled simulation, checkpointing) -------
    //
    // run() is the one-shot form; the sampled runner and the checkpoint
    // round-trip tests drive the same machinery in pieces:
    //
    //   beginRun(prog [, ckpt]);   // reset (or restore) machine state
    //   advance(target);           // cycle until `target` retired µops
    //   checkpoint(out);           // optional, at a drained boundary
    //   SimResult r = finishRun(); // publish attribution, final checks

    /** Predecode the program, reset every piece of machine state, warm
     *  the text image, and attach the attribution engine if the params
     *  ask for one. Pair with finishRun(). */
    void beginRun(const Program &prog);

    /** As above, then restore the warm state in 'ckpt' (produced by
     *  checkpoint(), after a detailed drain or a fast-forward). The
     *  checkpoint's params/program fingerprints must match ours. */
    void beginRun(const Program &prog, const CoreCheckpoint &ckpt);

    /**
     * Cycle the pipeline until `targetRetired` *total* retired µops
     * (whole-run coordinate — a restored core continues the original
     * count), the program halts, or a safety limit trips. With `drain`
     * (the default), reaching the target freezes fetch and keeps
     * cycling until the ROB and fetch queue empty — a checkpointable
     * boundary; without it the loop stops at the first cycle boundary
     * at or past the target (sampled measurement windows, where the
     * core is discarded afterwards). Pass UINT64_MAX to run to
     * completion; the drain then never engages and the cycle loop is
     * bit-identical to the historical run() loop.
     */
    void advance(std::uint64_t targetRetired, bool drain = true);

    /** Publish attribution, run the optional final-state cross-check,
     *  and return the run summary. */
    SimResult finishRun();

    /** Capture a warm-state checkpoint. Hard error unless the pipeline
     *  is drained (rob and fetch queue empty — what advance() with
     *  drain or fastForward() leaves behind). */
    void checkpoint(CoreCheckpoint &out) const;

    // --- functional fast-forward (sampled simulation) -------------------
    //
    //   beginFastForward(prog);    // reset machine state, no window
    //   fastForward(target);       // execute functionally, warming
    //   checkpoint(out);           // restorable into a detailed core

    /** Reset machine state and warm the text image as beginRun() does,
     *  but allocate no ROB or fetch queue and attach no sinks: the
     *  clock, allocators and fetch stall stay at their reset values.
     *  MergePoint dynamic predication is rejected, because the
     *  functional stream cannot train the merge-point table. */
    void beginFastForward(const Program &prog);

    /**
     * Execute functionally until `targetUops` *total* instructions, or
     * the program halts, with the threaded engine over this core's own
     * architectural state. Each branch and control transfer goes
     * through the timing path's own members: decode-side wish
     * bookkeeping, the fetch-time decision, the §3.5.4 recovery rule
     * with front-end repair, retire-time training, and the BTB/RAS/ITC
     * updates. Data accesses warm cache tags only. Two differences are
     * deliberate: a predicated wish jump/join that is actually taken
     * walks the skipped block as the core's front end would fetch it,
     * and a mispredicted indirect jump or return is not replayed.
     * Monotone (a target at or below retired() is a no-op) and never
     * overshoots.
     */
    void fastForward(std::uint64_t targetUops);

    // Progress accessors (valid between beginRun and finishRun, or
    // after beginFastForward).
    Cycle cycles() const { return now_; }
    std::uint64_t retired() const { return retiredUops_; }
    bool halted() const { return haltRetired_; }
    /** Architectural state; speculative while µops are in flight. */
    const ArchState &archState() const { return state_; }

    /** Maximum simultaneously attached probe sinks. */
    static constexpr unsigned kMaxSinks = 4;

    /** Attach a probe sink (uarch/probe.hh); it must outlive the run.
     *  With no sinks attached every emission site reduces to one
     *  predictable untaken branch. */
    void addSink(ProbeSink *s);

  private:
    // Pipeline stages (called once per cycle, back to front).
    void stageRetire();
    void stageComplete();
    void stageIssue();
    void stageIssuePoll(); ///< reference scheduler (pollScheduler knob)
    void stageRename();
    void stageFetch();

    void resetMachine(const Program &prog);

    /** The one checkpoint walk: checkpoint() writes it, beginRun(prog,
     *  ckpt) reads it. 'attribShadow' includes the attribution
     *  engine's flush shadow. */
    void ioWarmState(StateIO &io, bool attribShadow);

    // Helpers.
    void fetchOne(std::uint32_t idx);
    void resolveBranch(DynInst &di);
    void flushAfter(const DynInst &branch, std::uint32_t redirectPc,
                    FlushCause cause);
    void computeDeps(DynInst &di);
    bool depsReady(const DynInst &di) const;
    DynInst *findInst(SeqNum seq);
    const DynInst *findInst(SeqNum seq) const;
    bool producerDone(SeqNum seq) const;
    void claimProducers(DynInst &di);
    unsigned loadLatency(const DynInst &di);
    void retireWishStats(const DynInst &di);

    // Front-end and retire rules, shared by the cycle loop and
    // fastForward(). Defined always-inline in core.cc: each runs once
    // per fetched (or fast-forwarded) instruction or control µop.
    /** Fetch bubble a fetched control µop asks for. */
    enum class FetchStall : std::uint8_t
    {
        None,
        Gate,    ///< FetchGate: low-confidence normal branch
        BtbMiss, ///< predicted-taken direct transfer missed the BTB
    };
    void decodeWish(std::uint32_t idx);
    FetchStall processControl(DynInst &di);
    std::optional<FlushCause> resolveCondBranch(DynInst &di);
    void repairFrontEnd(const DynInst &branch);
    void retireControl(const DynInst &di);

    // fastForward() only.
    struct FastForwardHooks; ///< threadedRun() observer
    bool warmControl(DynInst &di, std::uint32_t pc, bool taken,
                     std::uint32_t nextPc);
    void warmPredicatedBlock(DynInst &di, std::uint32_t branchPc);

    // Event-driven wakeup.
    void scheduleOrReady(DynInst &di);     ///< link under a producer or ready
    void wakeConsumers(DynInst &producer); ///< producer completed
    void unlinkWaiter(DynInst &di);        ///< remove from its wait chain
    /** Issue one ready µop if no structural/memory hazard blocks it. */
    bool tryIssueOne(DynInst &di, unsigned &memPorts);

    // In-flight store index (O(words-touched) instead of O(stores)).
    void indexStore(SeqNum seq, Addr addr, unsigned size);
    void unindexStore(SeqNum seq, Addr addr, unsigned size);
    /** Youngest in-flight store older than 'seq' overlapping the given
     *  range, or null. */
    const DynInst *youngestOlderStore(SeqNum seq, Addr addr,
                                      unsigned size) const;

    SimParams params_;
    StatSet &stats_;

    // Substrates. The direction predictor and confidence estimator are
    // interface-typed and factory-constructed from params.predictor /
    // params.confKind (uarch/bpred_iface.hh).
    MemorySystem memsys_;
    std::unique_ptr<IBranchPredictor> bpred_;
    Btb btb_;
    ReturnAddressStack ras_;
    IndirectTargetCache itc_;
    std::unique_ptr<IConfidence> conf_;
    WishEngine wish_;
    MergePointTable merge_;

    // Program and speculative architectural state.
    const Program *prog_ = nullptr;
    const Instruction *code_ = nullptr;
    std::uint32_t codeSize_ = 0;
    ArchState state_;
    UndoLog undo_;

    /** Per-PC predecoded metadata (PreFlag mask + execute latency),
     *  built once per run(). */
    struct PreDecode
    {
        std::uint16_t flags = 0;
        std::uint8_t exLat = 1;
    };
    std::vector<PreDecode> pre_;

    // Dynamic predication (SimParams::dynPred). While a region is being
    // fetched (dynActive_) the frontend runs linearly from the trigger's
    // fall-through to dynRegionEnd_, executing only the µop the real
    // control flow is at (dynRealPc_) and nullifying the rest. The
    // trigger's completion is deferred until the region fetch ends, so
    // its resolution — flush on reconvergence failure, nothing on
    // success — sees the region outcome.
    bool dynActive_ = false;
    std::uint32_t dynRegionEnd_ = 0;
    std::uint32_t dynRealPc_ = 0;
    /** uid of the in-flight trigger, 0 = none. Only one region may be
     *  outstanding (trigger fetched but not yet resolved/squashed). */
    std::uint64_t dynOutstandingUid_ = 0;
    /** The trigger's seq once renamed: region µops depend on it (the
     *  trigger predicate guards the whole region). */
    SeqNum dynTriggerSeq_ = 0;
    /** Runtime region-size cap: user knob clamped so an in-flight
     *  region can always rename fully into the scheduler (the trigger
     *  cannot complete before the region finishes fetching, so a region
     *  larger than the IQ would wedge the machine). */
    unsigned dynRegionCap_ = 0;

    bool dynCanTrigger(std::uint32_t idx, std::uint32_t merge) const;
    void dynEndRegion();

    // Front end.
    std::uint32_t fetchPc_ = 0;
    bool fetchHalted_ = false;
    Cycle fetchStallUntil_ = 0;
    /** Draining toward a checkpoint boundary: fetch is frozen so the
     *  in-flight window retires and the pipeline empties. */
    bool fetchFrozen_ = false;
    RingBuffer<DynInst> fetchQueue_;
    unsigned fetchQueueCap_ = 0;

    // Back end. rob_ holds renamed in-flight µops in order; seq numbers
    // are dense (rob_[i].seq == rob_.front().seq + i).
    RingBuffer<DynInst> rob_;
    SeqNum nextSeq_ = 1;
    std::uint64_t nextUid_ = 1;
    /** Scheduler occupancy (µops renamed but not yet completed); the
     *  explicit seqnum list it replaced is gone. */
    std::size_t iqCount_ = 0;

    /** Ready list: renamed, un-issued µops whose producers have all
     *  completed (or that are retrying after a structural hazard).
     *  Kept sorted by seq before each issue sweep (oldest first). */
    std::vector<SeqNum> readyList_;
    bool readySorted_ = true;

    /** Completion events: (cycle, seq, uid), earliest first. */
    struct Event
    {
        Cycle cycle;
        SeqNum seq;
        std::uint64_t uid;
        bool operator>(const Event &o) const { return cycle > o.cycle; }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    SeqNum regProducer_[kNumIntRegs] = {};
    SeqNum predProducer_[kNumPredRegs] = {};

    // Probe sinks (uarch/probe.hh). Emission sites are guarded by
    // `nsinks_` so a sink-free run touches nothing but this counter.
    ProbeSink *sinks_[kMaxSinks] = {};
    unsigned nsinks_ = 0;

    void emitFetch(const DynInst &di, Cycle c);
    void emitRename(const DynInst &di);
    void emitIssue(const DynInst &di);
    void emitComplete(const DynInst &di, Cycle c);
    void emitRetire(const DynInst &di);
    void emitSquash(const DynInst &di);
    void emitFlush(const DynInst &branch, FlushCause cause);
    void emitCycle();

    /** Rename stalled on ROB/IQ capacity this cycle (attribution). */
    bool renameBlocked_ = false;
    /** Retirement stopped on an incomplete head this cycle — as
     *  opposed to exhausting its width or draining the ROB — so the
     *  head's stall reason is what limited the cycle (attribution). */
    bool retireStalledOnHead_ = false;

    Cycle now_ = 0;
    bool haltRetired_ = false;
    /** Attribution engine for the current run (beginRun..finishRun),
     *  attached as one more probe sink when the params opt in. */
    std::optional<AttributionEngine> attrib_;
    /** Sink count before the attribution engine was attached, restored
     *  by finishRun(). */
    unsigned externalSinks_ = 0;
    /** Cycle clock at beginRun — finish() receives the delta this
     *  engine observed, not the absolute clock, so a restored core's
     *  attribution still sums exactly. */
    Cycle attribStartCycle_ = 0;
    /** Completion cycles of outstanding L1D misses (MSHR occupancy),
     *  earliest first; stale heads are popped at the MSHR check instead
     *  of scanning every slot per load issue. */
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        missHeap_;
    /** Word-granular index over in-flight (renamed, unretired) stores:
     *  8-byte-aligned word -> ascending seqnums of the stores touching
     *  it. Buckets are kept allocated (cleared, not erased) across
     *  reuse. */
    std::unordered_map<Addr, std::vector<SeqNum>> storesByWord_;
    std::uint64_t retiredUops_ = 0;

    // Statistics handles.
    Counter *cCycles_;
    Counter *cRetired_;
    Counter *cRetiredNops_;
    Counter *cFetched_;
    Counter *cCondBranches_;
    Counter *cMispredicts_;
    Counter *cFlushes_;
    Histogram *hFetchWidth_;
    Histogram *hFlushSquash_;
    /** Lazily resolved wish retire-outcome counters, indexed by
     *  [kind][lowConf][outcome slot]. Lazy (not construction-time) so
     *  the set of registered counters — part of the stat output — is
     *  unchanged: a counter still appears only once its event occurs. */
    Counter *wishOutcome_[3][2][5] = {};
    Counter &wishOutcomeCounter(WishKind kind, bool low, unsigned slot);
    /** Dynamic-predication counters, registered only when
     *  params.dynPred != Off so the default stat set is unchanged. */
    Counter *dynTriggers_ = nullptr;
    Counter *dynRegionUops_ = nullptr;
    Counter *dynNullifiedUops_ = nullptr;
    Counter *dynSuccess_ = nullptr;
    Counter *dynFailed_ = nullptr;
    Counter *dynSavedFlushes_ = nullptr;
    Counter *dynFetchGates_ = nullptr;
};

/** Convenience: simulate a program with the given configuration, with
 *  external probe sinks attached for the duration of the run (in
 *  addition to any sinks the params themselves imply, such as the
 *  attribution engine). */
SimResult simulate(const Program &prog, const SimParams &params,
                   StatSet &stats,
                   const std::vector<ProbeSink *> &sinks = {});

} // namespace wisc

#endif // WISC_UARCH_CORE_HH_
