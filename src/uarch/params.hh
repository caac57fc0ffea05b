/**
 * @file
 * Simulator configuration. Defaults reproduce the baseline processor of
 * Table 2: 8-wide fetch/decode/rename/execute/retire, 512-entry reorder
 * buffer, 64 KB 4-way 2-cycle L1 caches, 1 MB 8-way 6-cycle L2, 300-cycle
 * memory, a 64K-entry gshare/PAs hybrid with 64K-entry selector, 4K-entry
 * BTB, 64-entry RAS, and a 1 KB tagged 4-way 16-bit-history JRS
 * confidence estimator. The minimum branch misprediction penalty is
 * ~30 cycles at the default 30-stage pipeline depth.
 */

#ifndef WISC_UARCH_PARAMS_HH_
#define WISC_UARCH_PARAMS_HH_

#include <cstdint>

namespace wisc {

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = 64;
    std::uint32_t hitLatency = 2;
};

/** Which confidence estimator drives wish-branch decisions. */
enum class ConfKind : std::uint8_t
{
    Jrs,    ///< Table 2's tagged miss-distance-counter estimator
    UpDown, ///< per-PC asymmetric up/down rate estimator (§7 extension)
    Tage,   ///< TAGE provider strength/usefulness (requires a TAGE
            ///< direction predictor; the estimate is free)
};

/** Which direction predictor drives the front end (IBranchPredictor
 *  implementations, uarch/bpred_iface.hh). */
enum class PredictorKind : std::uint8_t
{
    Hybrid,   ///< Table 2's gshare + PAs + selector (McFarling)
    Bimodal,  ///< per-PC 2-bit saturating counters (Smith)
    TwoLevel, ///< GAs: global history ++ PC bits -> shared pattern table
    Tage,     ///< geometric-history tagged predictor (Seznec & Michaud)
};

/** How the rename stage handles predicated instructions (§2.1, §5.3.3). */
enum class PredMechanism : std::uint8_t
{
    CStyle,    ///< C-style conditional expressions: 1 µop, 4 sources
    SelectUop, ///< compute µop + select µop (Wang et al.)
};

/**
 * Hardware-only adaptive predication for *normal* branches — the
 * compiler never marked them, the frontend decides alone
 * (DESIGN.md: dynamic predication).
 */
enum class DynPredMode : std::uint8_t
{
    Off,        ///< baseline: only compiler wish branches adapt
    MergePoint, ///< predicate low-confidence branches up to a merge
                ///< point learned in hardware (Dynamic Merge Point
                ///< Prediction, Pruett & Patt)
    FetchGate,  ///< stall fetch for a fixed penalty on low-confidence
                ///< branches instead of predicating (Variable
                ///< Instruction Fetch Rate)
};

/** Idealization switches used by the Figure 2/10/12 experiments. */
struct OracleKnobs
{
    /** NO-DEPEND: predicate values known at rename; predicate and
     *  old-destination dependences vanish. */
    bool noDepend = false;
    /** NO-FETCH: predicated-FALSE instructions cost no fetch/execute
     *  bandwidth (unconditional compares keep their clearing writes). */
    bool noFetch = false;
    /** PERFECT-CBP: every branch (and indirect target) predicted with
     *  oracle information. */
    bool perfectCBP = false;
    /** Perfect confidence estimation for wish branches. */
    bool perfectConfidence = false;
};

/** Full machine configuration. */
struct SimParams
{
    // Widths (Table 2: 8-wide everywhere).
    unsigned fetchWidth = 8;
    unsigned decodeWidth = 8;
    unsigned issueWidth = 8;
    unsigned retireWidth = 8;
    unsigned maxCondBrPerFetch = 3; ///< fetch ends at the first taken br
    unsigned memPortsPerCycle = 4;

    // Window (Table 2: 512-entry ROB; Figure 14 sweeps 128/256/512).
    unsigned robSize = 512;
    unsigned iqSize = 128;  ///< unified scheduler entries
    unsigned lsqSize = 256;

    /** Pipeline depth in stages (Figure 15 sweeps 10/20/30). The
     *  fetch-to-rename delay is depth-4, which yields a minimum branch
     *  misprediction penalty of roughly the stage count. */
    unsigned pipelineStages = 30;

    unsigned
    frontEndDelay() const
    {
        return pipelineStages > 4 ? pipelineStages - 4 : 1;
    }

    // Caches (Table 2) and memory.
    CacheParams il1{64 * 1024, 4, 64, 2};
    CacheParams dl1{64 * 1024, 4, 64, 2};
    CacheParams l2{1024 * 1024, 8, 64, 6};
    unsigned memLatency = 300;
    /** Maximum outstanding L1D misses (MSHRs); further missing loads
     *  wait at issue. */
    unsigned maxOutstandingMisses = 16;

    // Branch predictors (Table 2).
    unsigned gshareEntries = 64 * 1024;
    unsigned pasHistEntries = 4 * 1024; ///< per-address history registers
    unsigned pasPatternEntries = 64 * 1024;
    unsigned pasHistBits = 10;
    unsigned selectorEntries = 64 * 1024;
    unsigned btbSets = 1024; ///< x4 ways = 4K entries
    unsigned btbWays = 4;
    unsigned rasEntries = 64;
    unsigned indirectEntries = 4 * 1024;
    /** History bits feeding the indirect target cache index. The raw
     *  history register is unbounded (64-bit shift register); a real
     *  target cache indexes with a fixed slice of it, and the width is
     *  fingerprinted so fingerprint-equal machines hash identically. */
    unsigned indirectHistBits = 16;

    /** Direction-predictor selection (the zoo; Hybrid is Table 2). */
    PredictorKind predictor = PredictorKind::Hybrid;

    // Bimodal / standalone two-level zoo points.
    unsigned bimodalEntries = 16 * 1024;
    unsigned twoLevelEntries = 64 * 1024;  ///< pattern-table counters
    unsigned twoLevelHistBits = 8;         ///< global history register

    // TAGE (DESIGN.md: predictor zoo). A bimodal base table T0 plus
    // `tageTables` tagged tables whose history lengths grow
    // geometrically from tageMinHist to tageMaxHist (capped at 64: the
    // history register checkpointed per branch is one 64-bit word).
    unsigned tageTables = 5;
    unsigned tageEntriesLog2 = 10; ///< entries per tagged table (log2)
    unsigned tageTagBits = 9;
    unsigned tageMinHist = 4;
    unsigned tageMaxHist = 64;
    unsigned tageBaseEntriesLog2 = 12;
    unsigned tageUsefulBits = 2;
    /** Usefulness counters are halved every this many trains (pow2). */
    unsigned tageResetPeriod = 256 * 1024;

    // JRS confidence estimator (Table 2: 1 KB, tagged 4-way). The paper
    // quotes a 16-bit history; with a 512-entry table we found 16 bits
    // of history dilutes contexts so badly the estimator becomes a
    // constant, so the default uses 8 history bits and a threshold of 8
    // (bench/ablation_confidence sweeps both).
    unsigned confSets = 128;
    unsigned confWays = 4;
    unsigned confHistBits = 8;
    unsigned confCtrBits = 4;
    unsigned confThreshold = 8;
    unsigned confTagBits = 8;
    /** Policy for a confidence-table miss: true = optimistic (high
     *  confidence; entries are allocated on a misprediction), false =
     *  conservative (low confidence; allocate on every update). */
    bool confMissIsHigh = false;

    /** Estimator selection plus the up/down extension's knobs. */
    ConfKind confKind = ConfKind::Jrs;
    unsigned udConfEntries = 512;
    unsigned udConfHistBits = 4;
    unsigned udConfMax = 64;
    unsigned udConfThreshold = 24;
    unsigned udConfDownStep = 16;

    // Execution latencies (cycles).
    unsigned latAlu = 1;
    unsigned latMul = 3;
    unsigned latDiv = 12;
    unsigned latBranch = 1;
    unsigned latStoreForward = 2; ///< store-to-load forwarding

    // Predication support.
    PredMechanism predMech = PredMechanism::CStyle;

    /** Hardware wish-branch support; when false the hint bits are
     *  ignored and wish branches behave as normal branches (§3.4). */
    bool wishEnabled = true;

    /** The specialized wish-loop predictor §3.2 suggests: bias
     *  low-confidence wish-loop predictions to overestimate the trip
     *  count, making late exits (no flush) more common than early exits
     *  (flush). Disable to use the plain hybrid predictor alone. */
    bool wishLoopBias = true;

    /**
     * Dynamic predication for normal branches. Off is bit-identical to
     * the historical machine (no confidence estimates or updates for
     * normal branches, no merge-point table). MergePoint fetches a
     * low-confidence branch's hammock linearly up to the merge point
     * predicted by the hardware merge-point table (uarch/mergepoint.hh),
     * nullifying the not-taken-path µops; FetchGate stalls fetch for
     * dynFetchGateCycles instead. Sampled simulation accepts Off and
     * FetchGate; it rejects MergePoint, because a functional
     * fast-forward cannot train the merge-point table.
     */
    DynPredMode dynPred = DynPredMode::Off;
    /** FetchGate: cycles fetch stalls after a low-confidence branch. */
    unsigned dynFetchGateCycles = 6;
    /** Merge-point table entries (direct-mapped, pow2). */
    unsigned dynMergeEntries = 512;
    /** Confirmations (retired path reached the predicted merge point
     *  with no farther jump) required before an entry may trigger. */
    unsigned dynMergeMinConf = 2;
    /** Hard cap on a dynamically predicated region, in static
     *  instructions (also bounded by machine capacity at run time so a
     *  region can never wedge fetch against a full window). */
    unsigned dynMaxRegionUops = 48;
    /** Retired µops the table keeps watching past a branch for the
     *  reconvergence point before giving up. */
    unsigned dynMergeTrackUops = 96;

    OracleKnobs oracle;

    /**
     * Sampled-simulation (SMARTS-style) configuration, consumed by the
     * harness's SampledRunner — the Core itself never reads it. When
     * enabled, a run is executed as functional fast-forward with
     * µarchitectural warming plus periodic detailed windows, and the
     * RunOutcome holds statistical estimates instead of exact counts
     * (architectural results — retired µops, result register, memory
     * fingerprint — stay exact). Fingerprinted like every other field,
     * so sampled and full runs never alias in the run cache.
     */
    struct SamplingParams
    {
        bool enabled = false;
        /** Distance between consecutive window *starts*, in retired
         *  µops of the whole-program instruction stream. */
        std::uint64_t periodUops = 250'000;
        /** Detailed-warmup µops per window: executed cycle-accurately
         *  to fill pipeline-adjacent state the checkpoint cold-starts,
         *  excluded from the CPI estimate. */
        std::uint64_t warmupUops = 2'000;
        /** Measured µops per window. */
        std::uint64_t measureUops = 8'000;
        /**
         * Detailed prefix: the first prefixUops retired µops are
         * simulated cycle-accurately from reset and counted *exactly*
         * (stratified sampling at a 100% rate); periodic windows then
         * sample only the remainder, starting half a period past the
         * prefix. A program's cold-start transient — compulsory misses
         * over its whole working set, with a steeply decaying CPI — is
         * a fixed cycle cost that a handful of windows cannot estimate;
         * measuring it exactly removes the dominant bias term for
         * runs that are not astronomically long. Zero means pure
         * periodic sampling.
         */
        std::uint64_t prefixUops = 0;
    };
    SamplingParams sampling;

    // Safety limits.
    std::uint64_t maxCycles = 2'000'000'000ull;
    std::uint64_t maxRetired = 2'000'000'000ull;

    /** Cross-check the final architectural state against the reference
     *  functional emulator at halt (cheap, on by default). */
    bool checkFinalState = true;

    /**
     * Observability: attach the cycle-attribution engine for this run.
     * Emits the attrib.* CPI-stack counters (uarch/attribution.hh) that
     * charge every cycle to one cause and sum exactly to core.cycles.
     * Pure observation — core.* and wish.* statistics are bit-identical
     * either way — but part of the fingerprint, because the set of
     * emitted statistics (and hence the cached RunOutcome) differs.
     */
    bool collectAttribution = false;

    /** Observability: collect the per-static-branch profile table
     *  (core.branch_profile: per-PC dynamic count, mispredicts,
     *  confidence outcomes, flush cycles charged). */
    bool collectBranchProfile = false;

    /**
     * Verification knob: select the O(window²) poll-based issue loop
     * (rescan every scheduler entry and re-evaluate every producer
     * dependence each cycle) instead of the event-driven wakeup
     * scheduler. Both must produce bit-identical statistics; the
     * property tests cross-check them against each other. Never enable
     * this for experiments — it only exists to keep the fast scheduler
     * honest.
     */
    bool pollScheduler = false;

    /**
     * Canonical content fingerprint over *every* field above (including
     * pollScheduler: it must not alias the event path in the run
     * cache even though the statistics are required to match). Two
     * SimParams with equal fingerprints configure identical machines.
     * params.cc carries a sizeof static_assert so a new field cannot be
     * added without extending the hash, and the cache tests perturb
     * each field individually to prove it lands in the digest.
     */
    std::uint64_t fingerprint() const;
};

} // namespace wisc

#endif // WISC_UARCH_PARAMS_HH_
