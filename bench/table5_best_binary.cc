/**
 * @file
 * Table 5: per-benchmark execution-time reduction of the wish
 * jump/join/loop binary over (1) the normal binary, (2) the
 * best-performing *predicated* binary for that benchmark, and (3) the
 * best-performing non-wish binary for that benchmark — the paper's
 * "unrealistic best compiler" comparison (the compiler cannot actually
 * know which binary wins at run time; Figure 1 shows why).
 */

#include <algorithm>
#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
table5_best_binary(BenchCli &cli)
{
    printBanner(std::cout,
                "Table 5: wish jump/join/loop vs best per-benchmark "
                "binary",
                "positive % = wish binary is faster (input A, real "
                "confidence)");

    Table t({"benchmark", "vs normal", "vs best-pred", "best-pred-is",
             "vs best-non-wish", "best-is"});

    const std::vector<std::string> &names = workloadNames();
    struct Row
    {
        double r1, r2, r3;
        std::vector<std::string> cells;
    };
    std::vector<Row> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);
        double n = static_cast<double>(
            run(programFor(w, BinaryVariant::Normal, InputSet::A))
                .result.cycles);
        double d = static_cast<double>(
            run(programFor(w, BinaryVariant::BaseDef, InputSet::A))
                .result.cycles);
        double m = static_cast<double>(
            run(programFor(w, BinaryVariant::BaseMax, InputSet::A))
                .result.cycles);
        double wjl = static_cast<double>(
            run(programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A))
                .result.cycles);

        double bestPred = std::min(d, m);
        const char *bestPredName = d <= m ? "DEF" : "MAX";
        double best = std::min(n, bestPred);
        const char *bestName =
            n <= bestPred ? "BR" : bestPredName;

        double r1 = (1.0 - wjl / n) * 100.0;
        double r2 = (1.0 - wjl / bestPred) * 100.0;
        double r3 = (1.0 - wjl / best) * 100.0;
        rows[i] = {r1, r2, r3,
                   {name, Table::num(r1, 1) + "%",
                    Table::num(r2, 1) + "%", bestPredName,
                    Table::num(r3, 1) + "%", bestName}};
    });

    double s1 = 0, s2 = 0, s3 = 0;
    for (Row &row : rows) {
        s1 += row.r1;
        s2 += row.r2;
        s3 += row.r3;
        t.addRow(std::move(row.cells));
    }
    const double count = static_cast<double>(names.size());
    t.addRow({"AVG", Table::num(s1 / count, 1) + "%",
              Table::num(s2 / count, 1) + "%", "",
              Table::num(s3 / count, 1) + "%", ""});
    t.print(std::cout);
    std::cout << "\nPaper: +14.2% vs normal, +6.7% vs best predicated, "
                 "+5.1% vs the best non-wish binary per benchmark.\n";
    cli.addTable("table", t);
    return cli.finish();
}
