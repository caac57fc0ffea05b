/**
 * @file
 * Extension study (paper §7: "more accurate confidence estimation
 * mechanisms are also interesting to investigate"): the Table-2 JRS
 * estimator vs. a per-PC up/down *rate* estimator vs. perfect
 * confidence, on the wish jump/join/loop binaries. The up/down counter
 * tolerates rare-but-regular mispredictions (mcf's profile) that reset
 * a JRS streak counter.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

using namespace wisc;

int
ablation_estimators(BenchCli &cli)
{
    printBanner(std::cout, "Extension: confidence estimator comparison",
                "wish-jjl execution time normalized to the normal binary "
                "(input A)");

    SimParams jrs; // default

    SimParams updown;
    updown.confKind = ConfKind::UpDown;

    SimParams perfect;
    perfect.oracle.perfectConfidence = true;

    std::vector<SeriesSpec> series = {
        {"JRS", BinaryVariant::WishJumpJoinLoop, jrs},
        {"up/down", BinaryVariant::WishJumpJoinLoop, updown},
        {"perfect", BinaryVariant::WishJumpJoinLoop, perfect},
    };

    NormalizedResults r = runNormalizedExperiment(series, InputSet::A);
    printNormalized(std::cout, r);
    std::cout << "\nThe gap between each real estimator and the perfect "
                 "column is the §5.1 'better confidence estimator' "
                 "headroom (paper: 14.2% -> 16.2%).\n";
    cli.addResults("results", r);
    return cli.finish();
}
