/**
 * @file
 * Figure 1: execution time of predicated-code binaries relative to the
 * non-predicated binary, for three input sets per benchmark.
 *
 * The paper measured ORC-compiled binaries on a real Itanium-II; we run
 * the same experiment on the simulated machine. The point being
 * reproduced is input-set sensitivity: the same predicated binary wins
 * on one input and loses on another (paper: mcf -9%..+4%, bzip2
 * -1%..+16%).
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig01_input_dependence(BenchCli &cli)
{
    printBanner(std::cout,
                "Figure 1: predicated-code execution time vs. input set",
                "BASE-MAX binary (every suitable region predicated), "
                "normalized to the normal-branch binary on the same "
                "input (< 1.0 means predication wins)");

    const std::vector<std::string> &names = workloadNames();
    std::vector<std::vector<std::string>> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);
        std::vector<std::string> row = {name};
        for (InputSet in : {InputSet::A, InputSet::B, InputSet::C}) {
            RunOutcome base =
                run(programFor(w, BinaryVariant::Normal, in));
            RunOutcome pred =
                run(programFor(w, BinaryVariant::BaseMax, in));
            row.push_back(Table::num(
                static_cast<double>(pred.result.cycles) /
                static_cast<double>(base.result.cycles)));
        }
        rows[i] = std::move(row);
    });

    Table t({"benchmark", "input-A", "input-B", "input-C"});
    for (auto &row : rows)
        t.addRow(std::move(row));
    t.print(std::cout);
    std::cout << "\nPaper shape: predication generally helps but the sign"
                 " flips with the input for some benchmarks.\n";
    cli.addTable("table", t);
    return cli.finish();
}
