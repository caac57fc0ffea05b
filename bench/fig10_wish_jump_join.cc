/**
 * @file
 * Figure 10: performance of wish jump/join binaries against the two
 * predicated baselines, with the real JRS confidence estimator and with
 * a perfect one.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig10_wish_jump_join(BenchCli &cli)
{
    printBanner(std::cout, "Figure 10: wish jump/join binaries",
                "execution time normalized to the normal-branch binary "
                "(input A)");

    SimParams perfConf;
    perfConf.oracle.perfectConfidence = true;

    std::vector<SeriesSpec> series = {
        {"BASE-DEF", BinaryVariant::BaseDef, SimParams{}},
        {"BASE-MAX", BinaryVariant::BaseMax, SimParams{}},
        {"wish-jj(real)", BinaryVariant::WishJumpJoin, SimParams{}},
        {"wish-jj(perf)", BinaryVariant::WishJumpJoin, perfConf},
    };

    NormalizedResults r = runNormalizedExperiment(series, InputSet::A);
    printNormalized(std::cout, r);
    std::cout << "\nPaper shape: wish jump/join beats the normal binary "
                 "everywhere except mcf-like cases, recovers BASE-MAX's "
                 "mcf blowup, and perfect confidence only helps.\n";
    cli.addResults("results", r);
    return cli.finish();
}
