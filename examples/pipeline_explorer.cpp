/**
 * @file
 * Exploring the machine-configuration space: how window size and
 * pipeline depth change what wish branches are worth. Reproduces the
 * trend behind Figures 14/15 for a single workload, interactively
 * explorable by editing the sweeps below.
 *
 * Build & run:  ./build/examples/pipeline_explorer
 */

#include <iostream>

#include "harness/runner.hh"
#include "harness/table.hh"

int
main()
{
    using namespace wisc;

    printBanner(std::cout,
                "Study: machine configuration vs wish-branch benefit",
                "parser workload, wish-jjl vs normal binary (input A)");

    CompiledWorkload w = compileWorkload("parser");

    Table t({"window", "stages", "normal-cycles", "wjjl-cycles",
             "rel-time", "benefit"});
    for (unsigned rob : {128u, 256u, 512u}) {
        for (unsigned stages : {10u, 20u, 30u}) {
            SimParams p;
            p.robSize = rob;
            p.iqSize = rob / 4;
            p.lsqSize = rob / 2;
            p.pipelineStages = stages;

            RunOutcome n =
                run(programFor(w, BinaryVariant::Normal, InputSet::A), p);
            RunOutcome wr = run(
                programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A),
                p);
            double rel = static_cast<double>(wr.result.cycles) /
                         static_cast<double>(n.result.cycles);
            t.addRow({std::to_string(rob), std::to_string(stages),
                      std::to_string(n.result.cycles),
                      std::to_string(wr.result.cycles), Table::num(rel),
                      Table::num((1.0 - rel) * 100.0, 1) + "%"});
        }
    }
    t.print(std::cout);

    std::cout << "\nPaper trend: the deeper the pipeline and the larger "
                 "the window, the more a flush costs — and the more wish "
                 "branches save.\n";
    return 0;
}
