/**
 * @file
 * Ablation: the overestimating wish-loop predictor (§3.2's suggested
 * specialized predictor, DESIGN.md §5.4). Compares wish-jjl performance
 * with and without the trip-count overestimation bias, and reports the
 * early/late/no-exit mix it induces.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
ablation_loop_bias(BenchCli &cli)
{
    printBanner(std::cout, "Ablation: overestimating wish-loop predictor",
                "wish-jjl relative time and loop-exit classification "
                "(input A)");

    const std::vector<std::string> names = {"gzip", "vpr", "parser",
                                            "bzip2", "gap"};
    std::vector<std::vector<std::vector<std::string>>> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);
        for (bool bias : {false, true}) {
            SimParams p;
            p.wishLoopBias = bias;
            double n = static_cast<double>(
                run(RunRequest{w, BinaryVariant::Normal, InputSet::A, p})
                    .result.cycles);
            RunOutcome r = run(RunRequest{
                w, BinaryVariant::WishJumpJoinLoop, InputSet::A, p});
            rows[i].push_back(
                {name, bias ? "on" : "off",
                 Table::num(static_cast<double>(r.result.cycles) / n),
                 std::to_string(r.stat("wish.loop.low.early_exit")),
                 std::to_string(r.stat("wish.loop.low.late_exit")),
                 std::to_string(r.stat("wish.loop.low.no_exit"))});
        }
    });

    Table t({"benchmark", "bias", "rel-time", "early", "late", "no-exit"});
    for (auto &bench : rows)
        for (auto &row : bench)
            t.addRow(std::move(row));
    t.print(std::cout);
    std::cout << "\nThe bias converts early exits (full flush) into late "
                 "exits (predicated NOPs, no flush).\n";
    cli.addTable("table", t);
    return cli.finish();
}
