/**
 * @file
 * The fixed (workload, binary variant, machine) matrix behind the
 * golden-stat regression test. The golden values in
 * golden_stats_data.inc were captured from this exact matrix on the
 * seed (poll-scheduler) core; the test proves the event-driven
 * scheduler and DynInst layout rewrite left every counter and histogram
 * bit-identical. The two sampled rows were captured later, from the
 * fast-forward engine that still restated the core's branch rules, so
 * they prove the core warms itself bit-identically. Regenerate with the
 * golden_stats_gen tool after an *intentional* timing-model change:
 *
 *   build/tests/golden_stats_gen > tests/golden_stats_data.inc
 */

#ifndef WISC_TESTS_GOLDEN_RUNS_HH_
#define WISC_TESTS_GOLDEN_RUNS_HH_

#include <string>
#include <vector>

#include "harness/runner.hh"
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
 *  carries no attribution shadow) and a TAGE machine with TAGE
 *  confidence. */
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
    };
}

} // namespace wisc

#endif // WISC_TESTS_GOLDEN_RUNS_HH_
