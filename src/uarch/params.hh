/**
 * @file
 * Simulator configuration. Defaults reproduce the baseline processor of
 * Table 2: 8-wide fetch/decode/rename/execute/retire, 512-entry reorder
 * buffer, 64 KB 4-way 2-cycle L1 caches, 1 MB 8-way 6-cycle L2, 300-cycle
 * memory, a 64K-entry gshare/PAs hybrid with 64K-entry selector, 4K-entry
 * BTB, 64-entry RAS, and a 1 KB tagged 4-way 16-bit-history JRS
 * confidence estimator. The minimum branch misprediction penalty is
 * ~30 cycles at the default 30-stage pipeline depth.
 *
 * Each configuration struct is one list of X(type, name, default) rows:
 * WISC_CACHE_PARAMS, WISC_ORACLE_KNOBS, WISC_SAMPLING_PARAMS and
 * WISC_SIM_PARAMS. The list declares the members with their defaults,
 * and forEachParam() walks it, which is how SimParams::fingerprint()
 * and the run-cache perturbation test see every field. Adding a field
 * means adding one row, and the hash and that test cover it with no
 * other edit. Rows are hashed in list order, so a new or moved row
 * changes every run-cache key, and the keys pinned by
 * FingerprintTest.KnownMachinesKeepTheirKeys are captured again with
 * it. A default with commas passes through the variadic default, and
 * comments in a list are block comments: a line comment would swallow
 * the line continuation.
 */

#ifndef WISC_UARCH_PARAMS_HH_
#define WISC_UARCH_PARAMS_HH_

#include <cstdint>
#include <type_traits>

namespace wisc {

#define WISC_PARAM_MEMBER_(type, name, ...) type name = __VA_ARGS__;

/** Geometry and latency of one cache level. */
#define WISC_CACHE_PARAMS(X)                                               \
    X(std::uint32_t, sizeBytes, 64 * 1024)                                 \
    X(std::uint32_t, ways, 4)                                              \
    X(std::uint32_t, lineBytes, 64)                                        \
    X(std::uint32_t, hitLatency, 2)

struct CacheParams
{
    WISC_CACHE_PARAMS(WISC_PARAM_MEMBER_)
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
#define WISC_ORACLE_KNOBS(X)                                               \
    /** NO-DEPEND: predicate values known at rename; predicate and         \
     *  old-destination dependences vanish. */                             \
    X(bool, noDepend, false)                                               \
    /** NO-FETCH: predicated-FALSE instructions cost no fetch/execute      \
     *  bandwidth (unconditional compares keep their clearing writes). */  \
    X(bool, noFetch, false)                                                \
    /** PERFECT-CBP: every branch (and indirect target) predicted with     \
     *  oracle information. */                                             \
    X(bool, perfectCBP, false)                                             \
    /** Perfect confidence estimation for wish branches. */                \
    X(bool, perfectConfidence, false)

struct OracleKnobs
{
    WISC_ORACLE_KNOBS(WISC_PARAM_MEMBER_)
};

/**
 * Sampled-simulation (SMARTS-style) configuration, consumed by the
 * harness's SampledRunner — the Core itself never reads it. When
 * enabled, a run is executed as functional fast-forward with
 * µarchitectural warming plus periodic detailed windows, and the
 * RunOutcome holds statistical estimates instead of exact counts
 * (architectural results — retired µops, result register, memory
 * fingerprint — stay exact). Fingerprinted like every other field, so
 * sampled and full runs never alias in the run cache.
 */
#define WISC_SAMPLING_PARAMS(X)                                            \
    X(bool, enabled, false)                                                \
    /** Distance between consecutive window *starts*, in retired µops      \
     *  of the whole-program instruction stream. */                        \
    X(std::uint64_t, periodUops, 250'000)                                  \
    /** Detailed-warmup µops per window: executed cycle-accurately to      \
     *  fill pipeline-adjacent state the checkpoint cold-starts,           \
     *  excluded from the CPI estimate. */                                 \
    X(std::uint64_t, warmupUops, 2'000)                                    \
    /** Measured µops per window. */                                       \
    X(std::uint64_t, measureUops, 8'000)                                   \
    /** Detailed prefix: the first prefixUops retired µops are simulated   \
     *  cycle-accurately from reset and counted *exactly* (stratified      \
     *  sampling at a 100% rate); periodic windows then sample only the    \
     *  remainder, starting half a period past the prefix. A program's     \
     *  cold-start transient — compulsory misses over its whole working    \
     *  set, with a steeply decaying CPI — is a fixed cycle cost that a    \
     *  handful of windows cannot estimate; measuring it exactly removes   \
     *  the dominant bias term for runs that are not astronomically        \
     *  long. Zero means pure periodic sampling. */                        \
    X(std::uint64_t, prefixUops, 0)

/** Full machine configuration. */
#define WISC_SIM_PARAMS(X)                                                 \
    /* Widths (Table 2: 8-wide everywhere). */                             \
    X(unsigned, fetchWidth, 8)                                             \
    X(unsigned, decodeWidth, 8)                                            \
    X(unsigned, issueWidth, 8)                                             \
    X(unsigned, retireWidth, 8)                                            \
    X(unsigned, maxCondBrPerFetch, 3) /* fetch also ends at a taken br */  \
    X(unsigned, memPortsPerCycle, 4)                                       \
                                                                           \
    /* Window (Table 2: 512-entry ROB; Figure 14 sweeps 128/256/512). */   \
    X(unsigned, robSize, 512)                                              \
    X(unsigned, iqSize, 128) /* unified scheduler entries */               \
    /** Not modelled: nothing reads it. It stays because every             \
     *  run-cache key hashes it. */                                        \
    X(unsigned, lsqSize, 256)                                              \
    /** Pipeline depth in stages (Figure 15 sweeps 10/20/30). The          \
     *  fetch-to-rename delay is depth-4, which yields a minimum branch    \
     *  misprediction penalty of roughly the stage count. */               \
    X(unsigned, pipelineStages, 30)                                        \
                                                                           \
    /* Caches (Table 2) and memory. */                                     \
    X(CacheParams, il1, {64 * 1024, 4, 64, 2})                             \
    X(CacheParams, dl1, {64 * 1024, 4, 64, 2})                             \
    X(CacheParams, l2, {1024 * 1024, 8, 64, 6})                            \
    X(unsigned, memLatency, 300)                                           \
    /** Maximum outstanding L1D misses (MSHRs); further missing loads      \
     *  wait at issue. */                                                  \
    X(unsigned, maxOutstandingMisses, 16)                                  \
                                                                           \
    /* Branch predictors (Table 2). */                                     \
    X(unsigned, gshareEntries, 64 * 1024)                                  \
    X(unsigned, pasHistEntries, 4 * 1024) /* per-address histories */      \
    X(unsigned, pasPatternEntries, 64 * 1024)                              \
    X(unsigned, pasHistBits, 10)                                           \
    X(unsigned, selectorEntries, 64 * 1024)                                \
    X(unsigned, btbSets, 1024) /* x4 ways = 4K entries */                  \
    X(unsigned, btbWays, 4)                                                \
    X(unsigned, rasEntries, 64)                                            \
    X(unsigned, indirectEntries, 4 * 1024)                                 \
    /** History bits feeding the indirect target cache index. The raw      \
     *  history register is unbounded (64-bit shift register); a real      \
     *  target cache indexes with a fixed slice of it, and the width is    \
     *  fingerprinted so fingerprint-equal machines hash identically. */   \
    X(unsigned, indirectHistBits, 16)                                      \
                                                                           \
    /** Direction-predictor selection (the zoo; Hybrid is Table 2). */     \
    X(PredictorKind, predictor, PredictorKind::Hybrid)                     \
                                                                           \
    /* Bimodal / standalone two-level zoo points. */                       \
    X(unsigned, bimodalEntries, 16 * 1024)                                 \
    X(unsigned, twoLevelEntries, 64 * 1024) /* pattern-table counters */   \
    X(unsigned, twoLevelHistBits, 8) /* global history register */         \
                                                                           \
    /* TAGE (DESIGN.md: predictor zoo). A bimodal base table T0 plus       \
     * `tageTables` tagged tables whose history lengths grow               \
     * geometrically from tageMinHist to tageMaxHist (capped at 64: the    \
     * history register checkpointed per branch is one 64-bit word). */    \
    X(unsigned, tageTables, 5)                                             \
    X(unsigned, tageEntriesLog2, 10) /* entries per table, log2 */         \
    X(unsigned, tageTagBits, 9)                                            \
    X(unsigned, tageMinHist, 4)                                            \
    X(unsigned, tageMaxHist, 64)                                           \
    X(unsigned, tageBaseEntriesLog2, 12)                                   \
    X(unsigned, tageUsefulBits, 2)                                         \
    /** Usefulness counters are halved every this many trains (pow2). */   \
    X(unsigned, tageResetPeriod, 256 * 1024)                               \
                                                                           \
    /* JRS confidence estimator (Table 2: 1 KB, tagged 4-way). The paper   \
     * quotes a 16-bit history; with a 512-entry table we found 16 bits    \
     * of history dilutes contexts so badly the estimator becomes a        \
     * constant, so the default uses 8 history bits and a threshold of 8   \
     * (bench/ablation_confidence sweeps both). */                         \
    X(unsigned, confSets, 128)                                             \
    X(unsigned, confWays, 4)                                               \
    X(unsigned, confHistBits, 8)                                           \
    X(unsigned, confCtrBits, 4)                                            \
    X(unsigned, confThreshold, 8)                                          \
    X(unsigned, confTagBits, 8)                                            \
    /** Policy for a confidence-table miss: true = optimistic (high        \
     *  confidence; entries are allocated on a misprediction), false =     \
     *  conservative (low confidence; allocate on every update). */        \
    X(bool, confMissIsHigh, false)                                         \
                                                                           \
    /** Estimator selection plus the up/down extension's knobs. */         \
    X(ConfKind, confKind, ConfKind::Jrs)                                   \
    X(unsigned, udConfEntries, 512)                                        \
    X(unsigned, udConfHistBits, 4)                                         \
    X(unsigned, udConfMax, 64)                                             \
    X(unsigned, udConfThreshold, 24)                                       \
    X(unsigned, udConfDownStep, 16)                                        \
                                                                           \
    /* Execution latencies (cycles). */                                    \
    X(unsigned, latAlu, 1)                                                 \
    X(unsigned, latMul, 3)                                                 \
    X(unsigned, latDiv, 12)                                                \
    X(unsigned, latBranch, 1)                                              \
    X(unsigned, latStoreForward, 2) /* store-to-load forwarding */         \
                                                                           \
    /* Predication support. */                                             \
    X(PredMechanism, predMech, PredMechanism::CStyle)                      \
    /** Hardware wish-branch support; when false the hint bits are         \
     *  ignored and wish branches behave as normal branches (§3.4). */     \
    X(bool, wishEnabled, true)                                             \
    /** The specialized wish-loop predictor §3.2 suggests: bias            \
     *  low-confidence wish-loop predictions to overestimate the trip      \
     *  count, making late exits (no flush) more common than early exits   \
     *  (flush). Disable to use the plain hybrid predictor alone. */       \
    X(bool, wishLoopBias, true)                                            \
                                                                           \
    /** Dynamic predication for normal branches. Off is bit-identical to   \
     *  the historical machine (no confidence estimates or updates for     \
     *  normal branches, no merge-point table). MergePoint fetches a       \
     *  low-confidence branch's hammock linearly up to the merge point     \
     *  predicted by the hardware merge-point table                        \
     *  (uarch/mergepoint.hh), nullifying the not-taken-path µops;         \
     *  FetchGate stalls fetch for dynFetchGateCycles instead. Sampled     \
     *  simulation accepts Off and FetchGate; it rejects MergePoint,       \
     *  because a functional fast-forward cannot train the merge-point     \
     *  table. */                                                          \
    X(DynPredMode, dynPred, DynPredMode::Off)                              \
    /** FetchGate: cycles fetch stalls after a low-confidence branch. */   \
    X(unsigned, dynFetchGateCycles, 6)                                     \
    /** Merge-point table entries (direct-mapped, pow2). */                \
    X(unsigned, dynMergeEntries, 512)                                      \
    /** Confirmations (retired path reached the predicted merge point      \
     *  with no farther jump) required before an entry may trigger. */     \
    X(unsigned, dynMergeMinConf, 2)                                        \
    /** Hard cap on a dynamically predicated region, in static             \
     *  instructions (also bounded by machine capacity at run time so a    \
     *  region can never wedge fetch against a full window). */            \
    X(unsigned, dynMaxRegionUops, 48)                                      \
    /** Retired µops the table keeps watching past a branch for the        \
     *  reconvergence point before giving up. */                           \
    X(unsigned, dynMergeTrackUops, 96)                                     \
                                                                           \
    X(OracleKnobs, oracle, {})                                             \
    X(SamplingParams, sampling, {})                                        \
                                                                           \
    /* Safety limits. */                                                   \
    X(std::uint64_t, maxCycles, 2'000'000'000ull)                          \
    X(std::uint64_t, maxRetired, 2'000'000'000ull)                         \
                                                                           \
    /** Cross-check the final architectural state against the reference    \
     *  functional emulator at halt (cheap, on by default). */             \
    X(bool, checkFinalState, true)                                         \
    /** Observability: attach the cycle-attribution engine for this run.   \
     *  Emits the attrib.* CPI-stack counters (uarch/attribution.hh) that  \
     *  charge every cycle to one cause and sum exactly to core.cycles.    \
     *  Pure observation — core.* and wish.* statistics are bit-identical  \
     *  either way — but part of the fingerprint, because the set of       \
     *  emitted statistics (and hence the cached RunOutcome) differs. */   \
    X(bool, collectAttribution, false)                                     \
    /** Observability: collect the per-static-branch profile table         \
     *  (core.branch_profile: per-PC dynamic count, mispredicts,           \
     *  confidence outcomes, flush cycles charged). */                     \
    X(bool, collectBranchProfile, false)                                   \
    /** Verification knob: select the O(window²) poll-based issue loop     \
     *  (rescan every scheduler entry and re-evaluate every producer       \
     *  dependence each cycle) instead of the event-driven wakeup          \
     *  scheduler. Both must produce bit-identical statistics; the         \
     *  property tests cross-check them against each other. Never enable   \
     *  this for experiments — it only exists to keep the fast scheduler   \
     *  honest. */                                                         \
    X(bool, pollScheduler, false)

struct SimParams
{
    struct SamplingParams
    {
        WISC_SAMPLING_PARAMS(WISC_PARAM_MEMBER_)
    };

    WISC_SIM_PARAMS(WISC_PARAM_MEMBER_)

    unsigned
    frontEndDelay() const
    {
        return pipelineStages > 4 ? pipelineStages - 4 : 1;
    }

    /**
     * Canonical content fingerprint over every scalar forEachParam()
     * visits (including pollScheduler: it must not alias the event path
     * in the run cache even though the statistics are required to
     * match). Two SimParams with equal fingerprints configure identical
     * machines.
     */
    std::uint64_t fingerprint() const;
};

#undef WISC_PARAM_MEMBER_

#define WISC_PARAM_VISIT_(type, name, ...)                                 \
    if constexpr (std::is_class_v<decltype(s.name)>)                       \
        forEachParam(s.name, f);                                           \
    else                                                                   \
        f(#name, s.name);

/**
 * Call f(name, field) on every scalar of s (a SimParams, CacheParams,
 * OracleKnobs or SamplingParams, const or not) in list order, walking
 * each nested struct in place. name is the field's own name ("ways",
 * not "il1.ways"). This order is the fingerprint's byte order.
 */
template <class S, class F>
void
forEachParam(S &s, F &&f)
{
    using T = std::remove_const_t<S>;
    if constexpr (std::is_same_v<T, CacheParams>) {
        WISC_CACHE_PARAMS(WISC_PARAM_VISIT_)
    } else if constexpr (std::is_same_v<T, OracleKnobs>) {
        WISC_ORACLE_KNOBS(WISC_PARAM_VISIT_)
    } else if constexpr (std::is_same_v<T, SimParams::SamplingParams>) {
        WISC_SAMPLING_PARAMS(WISC_PARAM_VISIT_)
    } else {
        static_assert(std::is_same_v<T, SimParams>);
        WISC_SIM_PARAMS(WISC_PARAM_VISIT_)
    }
}

#undef WISC_PARAM_VISIT_

} // namespace wisc

#endif // WISC_UARCH_PARAMS_HH_
