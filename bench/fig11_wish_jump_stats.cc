/**
 * @file
 * Figure 11: dynamic wish branches (jumps + joins) per 1M retired µops
 * in the wish jump/join binary, classified by confidence estimate and
 * prediction outcome. The paper's two quality conditions: almost no
 * high-confidence branch should actually mispredict (satisfied), while
 * many low-confidence branches are in fact correctly predicted (the
 * real estimator's conservatism — the gap a better estimator closes).
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig11_wish_jump_stats(BenchCli &cli)
{
    printBanner(std::cout,
                "Figure 11: dynamic wish jumps/joins per 1M retired µops",
                "wish jump/join binary, real JRS confidence (input A)");

    const std::vector<std::string> &names = workloadNames();
    std::vector<std::vector<std::string>> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);
        RunOutcome r =
            run(programFor(w, BinaryVariant::WishJumpJoin, InputSet::A));
        double scale =
            1e6 / static_cast<double>(r.result.retiredUops);
        auto per1m = [&](const char *a, const char *b) {
            return Table::num((static_cast<double>(r.stat(a)) +
                               static_cast<double>(r.stat(b))) *
                                  scale,
                              0);
        };
        rows[i] = {name,
                   per1m("wish.jump.low.correct", "wish.join.low.correct"),
                   per1m("wish.jump.low.mispred", "wish.join.low.mispred"),
                   per1m("wish.jump.high.correct",
                         "wish.join.high.correct"),
                   per1m("wish.jump.high.mispred",
                         "wish.join.high.mispred")};
    });

    Table t({"benchmark", "low-correct", "low-mispred", "high-correct",
             "high-mispred"});
    for (auto &row : rows)
        t.addRow(std::move(row));
    t.print(std::cout);
    std::cout << "\nPaper shape: high-mispred is near zero everywhere; "
                 "low-correct is large on several benchmarks (room for a "
                 "better estimator, cf. the perf-conf bars of Fig 10).\n";
    cli.addTable("table", t);
    return cli.finish();
}
