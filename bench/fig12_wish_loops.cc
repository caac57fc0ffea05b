/**
 * @file
 * Figure 12: adding wish loops to wish jumps/joins. The headline result
 * of the paper: the wish jump/join/loop binary with a real confidence
 * estimator beats the normal binary by 14.2% on average and the
 * best-performing predicated binary by 13.3%.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig12_wish_loops(BenchCli &cli)
{
    printBanner(std::cout, "Figure 12: wish jump/join/loop binaries",
                "execution time normalized to the normal-branch binary "
                "(input A)");

    SimParams perfConf;
    perfConf.oracle.perfectConfidence = true;

    std::vector<SeriesSpec> series = {
        {"BASE-DEF", BinaryVariant::BaseDef, SimParams{}},
        {"BASE-MAX", BinaryVariant::BaseMax, SimParams{}},
        {"wish-jj(real)", BinaryVariant::WishJumpJoin, SimParams{}},
        {"wish-jjl(real)", BinaryVariant::WishJumpJoinLoop, SimParams{}},
        {"wish-jjl(perf)", BinaryVariant::WishJumpJoinLoop, perfConf},
    };

    NormalizedResults r = runNormalizedExperiment(series, InputSet::A);
    printNormalized(std::cout, r);

    double vsNormal = (1.0 - r.avg[3]) * 100.0;
    double bestPred = std::min(r.avg[0], r.avg[1]);
    double vsPred = (1.0 - r.avg[3] / bestPred) * 100.0;
    std::cout << "\nwish-jjl(real) improves the average execution time by "
              << Table::num(vsNormal, 1)
              << "% over normal branches (paper: 14.2%) and by "
              << Table::num(vsPred, 1)
              << "% over the best-performing predicated binary "
                 "(paper: 13.3%).\n";
    cli.addResults("results", r);
    cli.add("improvement_vs_normal_pct", json::Value(vsNormal));
    cli.add("improvement_vs_best_pred_pct", json::Value(vsPred));
    return cli.finish();
}
