/**
 * @file
 * Figure 14: wish-branch benefit vs instruction window size (128, 256,
 * 512 entries). Bigger windows raise the misprediction cost (longer
 * refill) and make late exits more likely, so wish branches gain more.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig14_window_sweep(BenchCli &cli)
{
    printBanner(std::cout, "Figure 14: instruction window sweep",
                "AVG / AVGnomcf execution time normalized to the "
                "normal-branch binary on the same machine (input A)");

    Table t({"window", "series", "AVG", "AVGnomcf"});
    for (unsigned rob : {128u, 256u, 512u}) {
        SimParams machine;
        machine.robSize = rob;
        machine.iqSize = rob / 4;
        machine.lsqSize = rob / 2;

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
            t.addRow({std::to_string(rob), series[i].label,
                      Table::num(r.avg[i]), Table::num(r.avgNoMcf[i])});
        }
    }
    t.print(std::cout);
    std::cout << "\nPaper shape: the wish binaries' improvement grows "
                 "with window size (11.4% -> 13.0% -> 14.2%).\n";
    cli.addTable("table", t);
    return cli.finish();
}
