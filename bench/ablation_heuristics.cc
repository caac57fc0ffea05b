/**
 * @file
 * Extension study (paper §3.6 / §7 future work): the compile-time wish
 * heuristic. SizeOnly is the paper's evaluated rule (§4.2.2: every
 * suitable hammock becomes a wish branch or predicated code);
 * ProfileAware leaves profile-easy branches as normal branches,
 * avoiding even the wish instructions' overhead when the train profile
 * already shows the branch is trivial.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
ablation_heuristics(BenchCli &cli)
{
    printBanner(std::cout, "Extension: compile-time wish heuristics",
                "wish-jjl execution time normalized to the normal "
                "binary, and static wish-branch counts (input A)");

    const std::vector<std::string> &names = workloadNames();
    struct Row
    {
        double rs, rp;
        std::vector<std::string> cells;
    };
    std::vector<Row> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompileOptions sizeOnly;
        CompileOptions profAware;
        profAware.wishHeuristic = WishHeuristic::ProfileAware;

        CompiledWorkload ws = compileWorkload(name, sizeOnly);
        CompiledWorkload wp = compileWorkload(name, profAware);

        double base = static_cast<double>(
            run(RunRequest{ws, BinaryVariant::Normal, InputSet::A})
                .result.cycles);
        double rs =
            static_cast<double>(
                run(RunRequest{ws, BinaryVariant::WishJumpJoinLoop,
                               InputSet::A})
                    .result.cycles) /
            base;
        double rp =
            static_cast<double>(
                run(RunRequest{wp, BinaryVariant::WishJumpJoinLoop,
                               InputSet::A})
                    .result.cycles) /
            base;
        rows[i] = {rs, rp,
                   {name, Table::num(rs), Table::num(rp),
                    std::to_string(
                        ws.variants.at(BinaryVariant::WishJumpJoinLoop)
                            .staticWishBranches()),
                    std::to_string(
                        wp.variants.at(BinaryVariant::WishJumpJoinLoop)
                            .staticWishBranches())}};
    });

    Table t({"benchmark", "size-only", "profile-aware", "wish-br(size)",
             "wish-br(profile)"});
    double s1 = 0, s2 = 0;
    for (Row &row : rows) {
        s1 += row.rs;
        s2 += row.rp;
        t.addRow(std::move(row.cells));
    }
    const double n = static_cast<double>(names.size());
    t.addRow({"AVG", Table::num(s1 / n), Table::num(s2 / n), "", ""});
    t.print(std::cout);
    std::cout << "\nProfile-aware compilation emits fewer wish branches; "
                 "whether it wins depends on how well the train profile "
                 "predicts run-time behavior (Figure 1's caveat).\n";
    cli.addTable("table", t);
    return cli.finish();
}
