/**
 * @file
 * Figure 16: the same comparison as Figure 12 on a machine that
 * supports predication with the select-µop mechanism instead of C-style
 * conditional expressions. Select-µops add µop overhead to predicated
 * code, so the wish-branch advantage over predication *grows*, while
 * the advantage over plain branch prediction shrinks slightly.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig16_select_uop(BenchCli &cli)
{
    printBanner(std::cout, "Figure 16: select-uop predication mechanism",
                "execution time normalized to the normal-branch binary "
                "on the select-uop machine (input A)");

    SimParams sel;
    sel.predMech = PredMechanism::SelectUop;

    SimParams selPerf = sel;
    selPerf.oracle.perfectConfidence = true;

    std::vector<SeriesSpec> series = {
        {"BASE-DEF", BinaryVariant::BaseDef, sel},
        {"BASE-MAX", BinaryVariant::BaseMax, sel},
        {"wish-jj(real)", BinaryVariant::WishJumpJoin, sel},
        {"wish-jjl(real)", BinaryVariant::WishJumpJoinLoop, sel},
        {"wish-jjl(perf)", BinaryVariant::WishJumpJoinLoop, selPerf},
    };

    NormalizedResults r =
        runNormalizedExperiment(series, InputSet::A, sel);
    printNormalized(std::cout, r);
    std::cout << "\nPaper shape: vs. C-style (Fig 12), predicated "
                 "binaries get relatively slower, wish binaries keep "
                 "most of their advantage.\n";
    cli.addResults("results", r);
    return cli.finish();
}
