/**
 * @file
 * The fixed (workload, binary variant, machine) matrix behind the
 * golden-stat regression test. The golden values in
 * golden_stats_data.inc were captured from this exact matrix on the
 * seed (poll-scheduler) core; the test proves the event-driven
 * scheduler and DynInst layout rewrite left every counter and histogram
 * bit-identical. The two sampled rows were captured later, from the
 * fast-forward engine that still restated the core's branch rules, so
 * they prove the core warms itself bit-identically. The last three rows
 * pin the machines the first seven leave out: Figure 2's NO-FETCH
 * oracle, hardware merge-point predication and PERFECT-CBP, the last two
 * with the branch profile on. Every non-sampled row also pins the digest
 * of its probe stream (probe_digest.hh). Regenerate with the
 * golden_stats_gen tool after an *intentional* timing-model change:
 *
 *   build/tests/golden_stats_gen > tests/golden_stats_data.inc
 */

#ifndef WISC_TESTS_GOLDEN_RUNS_HH_
#define WISC_TESTS_GOLDEN_RUNS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "probe_digest.hh"
#include "workloads/workload.hh"

namespace wisc {

struct GoldenRunSpec
{
    std::string label;
    std::string workload;
    BinaryVariant variant;
    InputSet input;
    SimParams params;
};

/** One run per binary *type* (normal branch / predicated / wish), plus
 *  the select-µop machine and a small-window machine for config
 *  coverage, plus two sampled runs that pin the fast-forward warming:
 *  the default machine with attribution on (a fast-forward checkpoint
 *  carries the engine's initial flush shadow) and a TAGE machine with
 *  TAGE confidence, plus Figure 2's NODEP+NOFETCH machine and two
 *  machines whose branch profile books confidence decisions
 *  differently: one with merge-point regions, one with a perfect
 *  predictor. */
inline std::vector<GoldenRunSpec>
goldenRuns()
{
    SimParams def;

    SimParams selectUop = def;
    selectUop.predMech = PredMechanism::SelectUop;

    SimParams smallWindow = def;
    smallWindow.robSize = 128;
    smallWindow.iqSize = 32;
    smallWindow.lsqSize = 64;

    // No detailed prefix, so every counter comes from the windows that
    // restore fast-forward checkpoints.
    SimParams sampled = def;
    sampled.sampling.enabled = true;
    sampled.sampling.periodUops = 40'000;
    sampled.sampling.warmupUops = 2'000;
    sampled.sampling.measureUops = 8'000;
    sampled.sampling.prefixUops = 0;

    SimParams sampledAttrib = sampled;
    sampledAttrib.collectAttribution = true;

    SimParams sampledTage = sampled;
    sampledTage.predictor = PredictorKind::Tage;
    sampledTage.confKind = ConfKind::Tage;

    SimParams noDepNoFetch = def;
    noDepNoFetch.oracle.noDepend = true;
    noDepNoFetch.oracle.noFetch = true;

    SimParams mergeProfile = def;
    mergeProfile.dynPred = DynPredMode::MergePoint;
    mergeProfile.collectBranchProfile = true;

    SimParams perfectProfile = def;
    perfectProfile.oracle.perfectCBP = true;
    perfectProfile.collectBranchProfile = true;

    return {
        {"normal", "gzip", BinaryVariant::Normal, InputSet::A, def},
        {"base-max", "gzip", BinaryVariant::BaseMax, InputSet::A, def},
        {"wish-jjl", "gzip", BinaryVariant::WishJumpJoinLoop, InputSet::A,
         def},
        {"wish-jjl-selectuop", "gzip", BinaryVariant::WishJumpJoinLoop,
         InputSet::A, selectUop},
        {"wish-jjl-win128", "gzip", BinaryVariant::WishJumpJoinLoop,
         InputSet::A, smallWindow},
        {"sampled-attrib", "gzip", BinaryVariant::WishJumpJoinLoop,
         InputSet::A, sampledAttrib},
        {"sampled-tage", "gzip", BinaryVariant::WishJumpJoinLoop,
         InputSet::A, sampledTage},
        {"base-max-nodep-nofetch", "gzip", BinaryVariant::BaseMax,
         InputSet::A, noDepNoFetch},
        {"wish-jj-mergepoint-profile", "vortex", BinaryVariant::WishJumpJoin,
         InputSet::A, mergeProfile},
        {"wish-jj-perfectcbp-profile", "vortex", BinaryVariant::WishJumpJoin,
         InputSet::A, perfectProfile},
    };
}

/** A sampled row restores its windows into cores that attach no sinks,
 *  so it pins no probe digest. */
inline bool
hasProbeDigest(const GoldenRunSpec &spec)
{
    return !spec.params.sampling.enabled;
}

/** Run a row once more, uncached, with a ProbeDigest attached: returns
 *  that run's outcome, which must equal the sink-free run's, and sets
 *  'digest' to the digest of its probe stream. */
inline RunOutcome
digestRun(const Program &prog, const GoldenRunSpec &spec,
          std::uint64_t &digest)
{
    ProbeDigest sink;
    RunOutcome o = captureRun(prog, spec.params, {&sink});
    digest = sink.digest();
    return o;
}

/** The sink-free and the digest run agree on every statistic. */
inline bool
sameStats(const RunOutcome &a, const RunOutcome &b)
{
    return a.result.cycles == b.result.cycles &&
           a.result.retiredUops == b.result.retiredUops &&
           a.result.resultReg == b.result.resultReg &&
           a.result.memFingerprint == b.result.memFingerprint &&
           a.stats == b.stats && a.hists == b.hists && a.tables == b.tables;
}

} // namespace wisc

#endif // WISC_TESTS_GOLDEN_RUNS_HH_
