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
 * Each µop is one packed record in one ring slot from fetch to retire
 * (common/ring.hh): the renamed prefix of the ring is the ROB and its
 * tail the fetch queue, so rename writes in place and nothing is
 * copied. Each stage writes the fields it owns; the record names its
 * static instruction by pc in the immutable Program image and carries
 * a bounded inline dependence array. The undo log is one flat ring
 * too, so the per-cycle hot path performs no heap allocation once the
 * log has grown to the in-flight window.
 *
 * Each per-µop rule is stated once, in the stage where its inputs
 * first exist: fetch decides whether a µop accesses memory (noMemAccess),
 * whether Figure 2's NO-FETCH oracle drops it (fetchOne()) and whether
 * it splits into a select-µop pair; countedBranch() decides which
 * branches the branch counters and the branch profile count, and
 * usesConfidence() which of them consult the confidence estimator, for
 * the estimate, the training and the retire probe alike; computeDeps()
 * states each operand role once and lets each predication shape pick
 * among them; and one pointer (dynTrigger_) names an open dynamic
 * region's trigger.
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
#include <deque>
#include <memory>
#include <optional>
#include <queue>
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

/**
 * The part of an in-flight µop that fetch writes: identity, the
 * execute-at-fetch result, and the front end's prediction. Fetch
 * writes every field except ckpt, rasCkpt, predictedTarget and
 * loopInstance, which processControl() writes for the control µops
 * that read them; a non-control or dynamic-region µop never does.
 * After fetch only the resolution outcome changes: mispredicted,
 * loopOutcome and the dynamic-region verdict. The static instruction
 * is the Program image's code_[pc].
 *
 * Fields are ordered widest first, so no flag sits between two 8-byte
 * fields.
 */
struct FetchedUop
{
    /** Unique id, never reused (seq numbers are reused after a flush);
     *  completion events are validated against it. A select half gets
     *  its own at rename. */
    std::uint64_t uid;
    Cycle fetchCycle; ///< rename waits until fetchCycle + front-end delay
    Addr memAddr;     ///< effective address (valid iff memSize != 0)
    /** Undo-log mark just after this µop's effects: a flush at this µop
     *  rolls back to it, retirement commits up to it. A compute half
     *  takes the mark before execution: its select half owns the
     *  effects. */
    UndoLog::Mark undoEnd;

    BpredCheckpoint ckpt;  ///< predictor state at fetch (control µops)
    RasCheckpoint rasCkpt; ///< RAS state after fetch (control µops)
    std::uint32_t pc;
    std::uint32_t nextIndex; ///< functional successor
    std::uint32_t predictedTarget;
    std::uint32_t loopInstance; ///< wish-loop instance at fetch
    /** Predecoded PreFlag mask of code_[pc] (computed once per static
     *  instruction per run, not per fetch). */
    std::uint16_t pre;
    /** Predecoded non-memory execute latency (cycles). */
    std::uint8_t exLat;
    std::uint8_t memSize; ///< bytes execute-at-fetch accessed: 0, 1 or 8
    FrontEndMode fetchMode;
    LoopOutcome loopOutcome;
    /** Select-µop expansion: 0 = none, 1 = compute half, 2 = select
     *  half (always the slot right after its compute half). */
    std::uint8_t selectPart;

    // Functional (execute-at-fetch) results.
    bool qpTrue; ///< value of the qualifying predicate
    bool taken;  ///< control transfer taken
    bool halted; ///< a Halt with TRUE qp executed
    /** A load or store that makes no memory access: it is predicated
     *  off, or it is the select half of a split load, whose compute
     *  half makes the access. Decided at fetch. */
    bool noMemAccess;

    bool predictorTaken; ///< raw predictor output
    bool predictedTaken; ///< effective front-end direction
    bool highConf;
    bool mispredicted; ///< raw prediction was wrong (stats)

    // Predicate prediction captured at fetch (§3.5.3 buffer hit).
    bool hasPredQp;
    bool predQpVal;

    // Dynamic predication (DynPredMode::MergePoint).
    /** Low-confidence normal branch that opened a dynamically
     *  predicated region (the hardware analog of a wish jump). */
    bool dynPredTrigger;
    /** Fetched inside a dynamically predicated region: guarded by the
     *  trigger, never redirects fetch, never flushes. */
    bool dynRegion;
    /** Region µop off the real path: retires as a predicated NOP. */
    bool dynNullified;
    /** Region fetch reached the merge point; dynPredFailed is valid. */
    bool dynOutcomeKnown;
    /** Real control flow never reconverged at the predicted merge
     *  point: the trigger must flush like a plain misprediction. */
    bool dynPredFailed;

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

/**
 * One in-flight µop: the fetched part plus what rename and the back
 * end write. It lives in one UopRing slot from fetch to retire; rename
 * writes the fields below in place. No default member initializers:
 * ring slots are raw storage, and each stage writes the fields it owns
 * before any reader can see them.
 */
struct DynInst : FetchedUop
{
    SeqNum seq;

    // Dependence tracking: bounded inline producer list.
    SeqNum deps[kMaxDeps];

    // Wakeup state. A waiting µop is linked into exactly one producer's
    // wait chain (the first still-outstanding producer); when that
    // producer completes the consumer re-scans its remaining producers
    // and either re-links or becomes ready. Links are seq numbers (0 =
    // none) resolved through the dense ROB, and chains are repaired
    // eagerly on squash, so they never contain dead entries. chainPrev
    // and chainNext are valid only while waitingOn is set.
    SeqNum waitingOn; ///< producer this µop is linked under
    SeqNum chainPrev; ///< older neighbor (0 = chain head)
    SeqNum chainNext; ///< next consumer in the same chain
    SeqNum wakeHead;  ///< head of this µop's own consumer chain

    // Rename bookkeeping (undone newest-first on flush); the previous
    // producers are valid only for claimed destinations.
    SeqNum prevRegProducer;
    SeqNum prevPredProducer[2];

    Cycle completeCycle; ///< valid once issued

    std::uint8_t numDeps;
    /** Bit i set iff deps[i] is predication-induced — the qualifying
     *  predicate or the old destination value, exactly the dependences
     *  the NO-DEPEND oracle removes. Feeds cycle attribution only. */
    std::uint8_t predDepMask;
    RegIdx claimedReg;
    PredIdx claimedPred[2];
    bool claimsReg;
    bool inIQ;
    bool issued;
    bool completed;
    bool l1Missed; ///< issued load missed in the L1D
    /** The dependence this µop most recently waited under was
     *  predication-induced, directly or transitively through the
     *  producer it waited on (attribution head classification). */
    bool lastWaitPred;
};

/** The packed size: every fetched µop writes its slot and the ROB walks
 *  them, so a field that grows the record must be argued for. */
static_assert(sizeof(DynInst) == 256, "DynInst is no longer 256 bytes");

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
    /** A machine at reset, bound to (and not outliving) 'prog': it
     *  predecodes the program, loads its data, warms the text image,
     *  and attaches the attribution engine if the params ask for one.
     *  Each Core runs its program once. */
    Core(const SimParams &params, StatSet &stats, const Program &prog);

    /** A machine resumed from 'ckpt' (produced by checkpoint(), after a
     *  detailed drain or a fast-forward): everything the checkpoint
     *  walk holds comes from it, and the rest starts as at reset. The
     *  checkpoint's params/program fingerprints must match ours. */
    Core(const SimParams &params, StatSet &stats, const Program &prog,
         const CoreCheckpoint &ckpt);

    /** The attribution engine is attached by its address. */
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Run the program to completion (Halt retired) or a safety limit.
     *  Exactly equivalent to advance(UINT64_MAX) + finishRun(). */
    SimResult run();

    // --- incremental driving (sampled simulation, checkpointing) -------
    //
    // run() is the one-shot form; the sampled runner and the checkpoint
    // round-trip tests drive the same machinery in pieces:
    //
    //   advance(target);           // cycle until `target` retired µops
    //   checkpoint(out);           // optional, at a drained boundary
    //   SimResult r = finishRun(); // publish attribution, final checks

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
     *  and return the run summary. Call once, at the end of the run. */
    SimResult finishRun();

    /** Capture a warm-state checkpoint. Hard error unless the pipeline
     *  is drained (rob and fetch queue empty — what advance() with
     *  drain or fastForward() leaves behind). */
    void checkpoint(CoreCheckpoint &out) const;

    // --- functional fast-forward (sampled simulation) -------------------
    //
    //   fastForward(target);       // execute functionally, warming
    //   checkpoint(out);           // restorable into a detailed core

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
     * Nothing cycles and no probe is emitted, so the clock, allocators
     * and fetch stall stay where the core started. MergePoint dynamic
     * predication is rejected, because the functional stream cannot
     * train the merge-point table. Monotone (a target at or below
     * retired() is a no-op) and never overshoots.
     */
    void fastForward(std::uint64_t targetUops);

    // Progress accessors.
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

    /** The part both public constructors share: every structure built
     *  cold and the program predecoded, with no data loaded, no text
     *  image warmed and no fetch PC; each public constructor supplies
     *  where its run starts. */
    struct Unstarted
    {
    };
    Core(const SimParams &params, StatSet &stats, const Program &prog,
         Unstarted);

    /** The one checkpoint walk: checkpoint() writes it, the restoring
     *  constructor reads it. */
    void ioWarmState(StateIO &io);

    // Helpers.
    /** The static instruction of a µop, in the immutable Program image. */
    const Instruction &
    instOf(const FetchedUop &u) const
    {
        return code_[u.pc];
    }
    /** Fetch the µop at idx into the ring, with its select half's slot
     *  right after it when it expands (selectPart 1). Null when the
     *  NO-FETCH oracle drops it: fetch executed it, and it takes no
     *  fetch slot, ring slot or probe. */
    DynInst *fetchOne(std::uint32_t idx);
    /** Rename the oldest unrenamed µop, di, in place. */
    void renameOne(DynInst &di);
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
    void retireWishStats(const FetchedUop &di);

    // Front-end and retire rules, shared by the cycle loop and
    // fastForward(). Defined always-inline in core.cc: each runs once
    // per fetched (or fast-forwarded) instruction or control µop, and
    // reads and writes only the fetched part of the record.
    /** Fetch bubble a fetched control µop asks for. */
    enum class FetchStall : std::uint8_t
    {
        None,
        Gate,    ///< FetchGate: low-confidence normal branch
        BtbMiss, ///< predicted-taken direct transfer missed the BTB
    };
    void decodeWish(std::uint32_t idx);
    /** A conditional branch outside a merge-point region: retired, it
     *  is what core.cond_branches counts and the branch profile's count
     *  column books (RetireProbe::isCondBr). A region branch resolves
     *  but neither predicts nor redirects fetch. */
    static bool
    countedBranch(const FetchedUop &di)
    {
        return di.isCondBr() && !di.dynRegion;
    }
    /** §3.5.5: a counted branch consults the confidence estimator when
     *  it is a wish branch on a wish machine, or whenever dynamic
     *  predication is on. Fetch asks the estimate (unless PERFECT-CBP
     *  makes the prediction certain), retire trains it, and the retire
     *  probe reports it. */
    bool
    usesConfidence(const FetchedUop &di) const
    {
        return countedBranch(di) &&
               ((params_.wishEnabled && instOf(di).wish != WishKind::None) ||
                params_.dynPred != DynPredMode::Off);
    }
    FetchStall processControl(FetchedUop &di);
    std::optional<FlushCause> resolveCondBranch(FetchedUop &di);
    void repairFrontEnd(const FetchedUop &branch);
    void retireControl(const FetchedUop &di);

    // fastForward() only.
    struct FastForwardHooks; ///< threadedRun() observer
    bool warmControl(FetchedUop &di, std::uint32_t pc, bool taken,
                     std::uint32_t nextPc);
    void warmPredicatedBlock(FetchedUop &di, std::uint32_t branchPc);

    // Event-driven wakeup.
    void scheduleOrReady(DynInst &di);     ///< link under a producer or ready
    void wakeConsumers(DynInst &producer); ///< producer completed
    void unlinkWaiter(DynInst &di);        ///< remove from its wait chain
    /** Issue one ready µop if no structural/memory hazard blocks it. */
    bool tryIssueOne(DynInst &di, unsigned &memPorts);

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
    const Program &prog_;
    const Instruction *code_;
    std::uint32_t codeSize_;
    ArchState state_;
    UndoLog undo_;

    /** Per-PC predecoded metadata (PreFlag mask + execute latency),
     *  built once per Core. */
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
    /** The ring slot of the open region's trigger, null when none. Set
     *  when the region opens, cleared when the trigger resolves or is
     *  squashed; a slot does not move while its µop is in flight. Only
     *  one region may be outstanding, and while one is being fetched
     *  (dynActive_) its trigger is. Region µops that rename while their
     *  trigger is outstanding depend on it (its predicate guards the
     *  whole region). */
    DynInst *dynTrigger_ = nullptr;
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
    /** Fetch-queue capacity and occupancy, in fetched µops: a select
     *  half's reserved slot does not count. */
    unsigned fetchQueueCap_ = 0;
    unsigned fetchedUops_ = 0;

    /** Every in-flight µop in fetch order. The renamed prefix is the
     *  ROB, with dense seq numbers (uops_[i].seq == uops_.front().seq +
     *  i); the unrenamed tail is the fetch queue. */
    UopRing<DynInst> uops_;
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
    /** Attribution engine, attached as one more probe sink when the
     *  params opt in. */
    std::optional<AttributionEngine> attrib_;
    /** Cycle clock the run started at — finish() receives the delta
     *  this engine observed, not the absolute clock, so a restored
     *  core's attribution still sums exactly. */
    Cycle attribStartCycle_ = 0;
    /** Completion cycles of outstanding L1D misses (MSHR occupancy),
     *  earliest first; stale heads are popped at the MSHR check instead
     *  of scanning every slot per load issue. */
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        missHeap_;
    /** In-flight (renamed, unretired) stores that access memory, in
     *  program order: rename appends, retirement pops the front, and a
     *  squash, which goes youngest first, pops the back. Entries are
     *  ring slots, which do not move while their µop is in flight. A
     *  load scans it; it holds about two stores per lookup (DESIGN.md
     *  §7). */
    std::deque<DynInst *> storeQueue_;
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
