/**
 * @file
 * Probe/Sink instrumentation API: the one channel through which the
 * cycle-level core exposes microarchitectural events to observers.
 *
 * The Core emits a fixed set of probe events — µop lifecycle (fetch,
 * rename, issue, complete, retire, squash), pipeline flushes with their
 * cause, and one end-of-cycle summary — to every attached ProbeSink.
 * Sinks are pure observers: they must not mutate simulator state, so a
 * run with any combination of sinks attached produces bit-identical
 * statistics to a run with none (the golden-stat regression enforces
 * this for the detached case, tests/attribution_test for the attached
 * one).
 *
 * With no sinks attached the hot path reduces to one predictable
 * branch per event site (`if (nsinks_)`), so detached runs pay
 * essentially nothing — bench/micro_simspeed guards the budget.
 *
 * Current sinks: PipeTracer (F/R/I/C/W pipeline diagrams,
 * uarch/pipetrace.hh) and AttributionEngine (CPI stacks and per-branch
 * profiles, uarch/attribution.hh).
 */

#ifndef WISC_UARCH_PROBE_HH_
#define WISC_UARCH_PROBE_HH_

#include <cstdint>

#include "common/types.hh"
#include "isa/isa.hh"
#include "uarch/wish.hh"

namespace wisc {

/** Why a pipeline flush happened (the §3.5.4 recovery taxonomy). */
enum class FlushCause : std::uint8_t
{
    /** Conventional misprediction: a normal branch, an indirect
     *  jump/return, or a wish branch the hardware treated as a normal
     *  branch (wishEnabled off never reaches the probe as wish). */
    Normal,
    /** A wish branch fetched in high-confidence (normal-branch) mode
     *  whose prediction was wrong. */
    WishHighConf,
    /** Low-confidence wish loop predicted not-taken that had to iterate
     *  again (early exit, §3.2). */
    WishLoopEarly,
    /** Low-confidence wish loop whose front end never exited the loop
     *  instance (no exit, §3.2). */
    WishLoopNoExit,
};

/** A µop entering the pipe (fetch, or select-half creation at rename). */
struct FetchProbe
{
    std::uint64_t uid = 0;
    std::uint32_t pc = 0;
    const Instruction *inst = nullptr;
    Cycle cycle = 0;
};

/** One µop passing a simple pipeline stage (rename/issue/complete). */
struct StageProbe
{
    std::uint64_t uid = 0;
    Cycle cycle = 0;
};

/** A µop retiring (in order). */
struct RetireProbe
{
    std::uint64_t uid = 0;
    SeqNum seq = 0;
    std::uint32_t pc = 0;
    Cycle cycle = 0;
    bool predFalse = false;    ///< retired as a predicated-FALSE NOP
    /** A conditional branch outside a merge-point region
     *  (Core::countedBranch()): what core.cond_branches counts and the
     *  branch profile's count column books. */
    bool isCondBr = false;
    bool mispredicted = false; ///< raw predictor direction was wrong
    /** highConf holds an estimate the front end made: the branch is a
     *  conditional branch outside a hardware-predicated region, it is a
     *  wish branch on a wish machine or dynamic predication is on
     *  (SimParams::dynPred != Off), and PERFECT-CBP did not make its
     *  prediction certain (Core::usesConfidence()). */
    bool confValid = false;
    bool highConf = false;
    WishKind wishKind = WishKind::None;
};

/** A µop squashed on the wrong path. */
struct SquashProbe
{
    std::uint64_t uid = 0;
};

/** A pipeline flush, emitted before the squash probes of its victims. */
struct FlushProbe
{
    std::uint32_t pc = 0;  ///< the flushing branch
    SeqNum seq = 0;        ///< its sequence number (refill watermark)
    Cycle cycle = 0;
    FlushCause cause = FlushCause::Normal;
};

/**
 * End-of-cycle summary, emitted once per simulated cycle after every
 * stage has run. Retire counts are not repeated here — a sink that
 * needs them accumulates RetireProbes and treats CycleProbe as the
 * cycle boundary (AttributionEngine does exactly that).
 */
struct CycleProbe
{
    Cycle cycle = 0;
    bool robEmpty = false;      ///< nothing in flight past rename
    bool renameBlocked = false; ///< rename stalled on ROB/IQ capacity
    /** The head facts below are reported only on cycles where the
     *  retire stage stopped on an incomplete head (rather than
     *  exhausting its width or draining the ROB) — only then is the
     *  head's stall reason what limited the cycle's progress. */

    /** ROB head is an incomplete load with an outstanding L1D miss (or
     *  a load blocked at issue by memory-system congestion). */
    bool headLoadMiss = false;
    /** ROB head is incomplete and the last producer its issue waited
     *  on was a predication-induced dependence (qualifying predicate or
     *  old-destination value — exactly the dependences the NO-DEPEND
     *  oracle removes). Independent of headLoadMiss: both hold for a
     *  predicate-delayed load that then missed, and a sink chooses
     *  which cause to charge. */
    bool headPredWait = false;
};

/**
 * Observer interface. Default implementations are empty, so a sink
 * overrides only the events it cares about. Sinks must not throw and
 * must not touch simulator state; they may be attached to at most one
 * Core at a time and must outlive the run.
 */
class ProbeSink
{
  public:
    virtual ~ProbeSink() = default;

    virtual void onFetch(const FetchProbe &) {}
    virtual void onRename(const StageProbe &) {}
    virtual void onIssue(const StageProbe &) {}
    virtual void onComplete(const StageProbe &) {}
    virtual void onRetire(const RetireProbe &) {}
    virtual void onSquash(const SquashProbe &) {}
    virtual void onFlush(const FlushProbe &) {}
    virtual void onCycle(const CycleProbe &) {}
};

} // namespace wisc

#endif // WISC_UARCH_PROBE_HH_
