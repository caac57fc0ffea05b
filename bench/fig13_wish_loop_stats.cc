/**
 * @file
 * Figure 13: dynamic wish loops per 1M retired µops in the wish
 * jump/join/loop binary, classified by confidence and misprediction
 * kind. Late-exit is the only case where a wish loop beats a normal
 * backward branch (§3.2); benchmarks with many late exits are exactly
 * the ones wish loops speed up.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig13_wish_loop_stats(BenchCli &cli)
{
    printBanner(std::cout,
                "Figure 13: dynamic wish loops per 1M retired µops",
                "wish jump/join/loop binary, real JRS confidence "
                "(input A)");

    const std::vector<std::string> &names = workloadNames();
    std::vector<std::vector<std::string>> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);
        RunOutcome r = run(
            programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A));
        double scale =
            1e6 / static_cast<double>(r.result.retiredUops);
        auto per1m = [&](const char *k) {
            return Table::num(static_cast<double>(r.stat(k)) * scale, 0);
        };
        rows[i] = {name, per1m("wish.loop.low.correct"),
                   per1m("wish.loop.low.early_exit"),
                   per1m("wish.loop.low.late_exit"),
                   per1m("wish.loop.low.no_exit"),
                   per1m("wish.loop.high.correct"),
                   per1m("wish.loop.high.mispred")};
    });

    Table t({"benchmark", "low-correct", "low-early", "low-late",
             "low-noexit", "high-correct", "high-mispred"});
    for (auto &row : rows)
        t.addRow(std::move(row));
    t.print(std::cout);
    std::cout << "\nPaper shape: benchmarks with many low-confidence "
                 "late-exit loops (vpr/parser/bzip2-like) gain >3% from "
                 "wish loops.\n";
    cli.addTable("table", t);
    return cli.finish();
}
