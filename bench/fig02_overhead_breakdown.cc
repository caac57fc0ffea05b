/**
 * @file
 * Figure 2: where the overhead of predicated execution comes from.
 *
 *   BASE-MAX             — aggressively predicated binary, all overheads
 *   NO-DEPEND            — predicate data dependences ideally removed
 *   NO-DEPEND+NO-FETCH   — predicated-FALSE µops also cost no fetch
 *   PERFECT-CBP          — normal binary with oracle branch prediction
 *
 * All normalized to the normal-branch binary. The paper's takeaways:
 * predication with all overheads modeled does not beat no-predication on
 * average; removing both overheads makes it clearly win; perfect branch
 * prediction is better still (backward branches cannot be predicated).
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig02_overhead_breakdown(BenchCli &cli)
{
    printBanner(std::cout,
                "Figure 2: overhead sources of predicated execution",
                "execution time normalized to the normal-branch binary "
                "(input A)");

    SimParams noDep;
    noDep.oracle.noDepend = true;

    SimParams noDepNoFetch;
    noDepNoFetch.oracle.noDepend = true;
    noDepNoFetch.oracle.noFetch = true;

    SimParams perfectCbp;
    perfectCbp.oracle.perfectCBP = true;

    std::vector<SeriesSpec> series = {
        {"BASE-MAX", BinaryVariant::BaseMax, SimParams{}},
        {"NO-DEPEND", BinaryVariant::BaseMax, noDep},
        {"NODEP+NOFETCH", BinaryVariant::BaseMax, noDepNoFetch},
        {"PERFECT-CBP", BinaryVariant::Normal, perfectCbp},
    };

    NormalizedResults r = runNormalizedExperiment(series, InputSet::A);
    printNormalized(std::cout, r);
    std::cout << "\nPaper shape: BASE-MAX ~1.0 on average; removing "
                 "dependences then fetch overhead recovers predication's "
                 "win; PERFECT-CBP is best.\n";
    cli.addResults("results", r);
    return cli.finish();
}
