/**
 * @file
 * Figure 15: wish-branch benefit vs pipeline depth (10, 20, 30 stages
 * on a 256-entry window). Deeper pipelines pay more per misprediction,
 * so wish branches gain more.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig15_depth_sweep(BenchCli &cli)
{
    printBanner(std::cout, "Figure 15: pipeline depth sweep",
                "AVG / AVGnomcf execution time normalized to the "
                "normal-branch binary on the same machine "
                "(256-entry window, input A)");

    Table t({"stages", "series", "AVG", "AVGnomcf"});
    for (unsigned stages : {10u, 20u, 30u}) {
        SimParams machine;
        machine.robSize = 256;
        machine.iqSize = 64;
        machine.lsqSize = 128;
        machine.pipelineStages = stages;

        SimParams perf = machine;
        perf.oracle.perfectConfidence = true;

        std::vector<SeriesSpec> series = {
            {"BASE-DEF", BinaryVariant::BaseDef, machine},
            {"BASE-MAX", BinaryVariant::BaseMax, machine},
            {"wish-jjl(real)", BinaryVariant::WishJumpJoinLoop, machine},
            {"wish-jjl(perf)", BinaryVariant::WishJumpJoinLoop, perf},
        };
        NormalizedResults r =
            runNormalizedExperiment(series, InputSet::A, machine);
        for (std::size_t i = 0; i < series.size(); ++i) {
            t.addRow({std::to_string(stages), series[i].label,
                      Table::num(r.avg[i]), Table::num(r.avgNoMcf[i])});
        }
    }
    t.print(std::cout);
    std::cout << "\nPaper shape: wish-branch improvement grows with "
                 "pipeline depth (8.0% -> 11.0% -> 13.0%).\n";
    cli.addTable("table", t);
    return cli.finish();
}
