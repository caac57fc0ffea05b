/**
 * @file
 * Table 4: benchmark characterization — dynamic µop counts, static and
 * dynamic conditional branches, mispredictions per 1K retired µops, µPC
 * (µops per cycle), and the static/dynamic wish-branch population of
 * the wish jump/join/loop binary with the fraction of wish loops.
 */

#include <iostream>

#include "arch/emulator.hh"
#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
table4_benchmarks(BenchCli &cli)
{
    printBanner(std::cout, "Table 4: simulated benchmarks",
                "normal binary characteristics (input A) and wish "
                "jump/join/loop binary wish-branch population");

    Table t({"benchmark", "dyn-uops", "static-br", "dyn-br",
             "misp/1Kuop", "uPC", "static-wish(%loop)",
             "dyn-wish(%loop)"});

    const std::vector<std::string> &names = workloadNames();
    std::vector<std::vector<std::string>> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);

        RunOutcome n =
            run(programFor(w, BinaryVariant::Normal, InputSet::A));
        const CompiledBinary &wjjl =
            w.variants.at(BinaryVariant::WishJumpJoinLoop);

        // Dynamic wish-branch counts come from a run of the wjjl binary.
        RunOutcome wr = run(
            programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A));
        auto dynOf = [&](const char *kind) {
            std::uint64_t v = 0;
            for (const char *cls :
                 {".low.correct", ".low.mispred", ".high.correct",
                  ".high.mispred", ".low.early_exit", ".low.late_exit",
                  ".low.no_exit"})
                v += wr.stat(std::string("wish.") + kind + cls);
            return v;
        };
        std::uint64_t dynJump = dynOf("jump");
        std::uint64_t dynJoin = dynOf("join");
        std::uint64_t dynLoop = dynOf("loop");
        std::uint64_t dynWish = dynJump + dynJoin + dynLoop;

        unsigned staticWish = wjjl.staticWishBranches();
        double staticLoopPct =
            staticWish ? 100.0 * wjjl.staticWishLoops / staticWish : 0.0;
        double dynLoopPct =
            dynWish ? 100.0 * static_cast<double>(dynLoop) /
                          static_cast<double>(dynWish)
                    : 0.0;

        rows[i] = {name,
                   std::to_string(n.result.retiredUops),
                   std::to_string(
                       w.variants.at(BinaryVariant::Normal)
                           .staticCondBranches),
                   std::to_string(n.require("core.cond_branches")),
                   Table::num(n.mispredictsPer1K(), 1),
                   Table::num(n.result.ipc(), 2),
                   std::to_string(staticWish) + " (" +
                       Table::num(staticLoopPct, 0) + "%)",
                   std::to_string(dynWish) + " (" +
                       Table::num(dynLoopPct, 0) + "%)"};
    });
    for (auto &row : rows)
        t.addRow(std::move(row));
    t.print(std::cout);
    std::cout << "\nPaper shape: mispredictions per 1K µops vary from "
                 "~1 (gap, vortex) to ~9 (gzip, parser, bzip2).\n";
    cli.addTable("table", t);
    return cli.finish();
}
