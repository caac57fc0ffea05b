/**
 * @file
 * Table 3: the five binary flavors per benchmark — code size and the
 * static population of normal branches, wish jumps, joins, and loops —
 * verifying the compiler implements the described generation rules
 * (predicated code keeps no hammock branches; wish binaries keep them
 * as wish branches; only the jjl binary converts loop branches).
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
table3_binaries(BenchCli &cli)
{
    printBanner(std::cout, "Table 3: compiled binary variants",
                "static instruction and branch composition per variant");

    const std::vector<std::string> &names = workloadNames();
    std::vector<std::vector<std::vector<std::string>>> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);
        for (BinaryVariant v : kAllVariants) {
            const CompiledBinary &b = w.variants.at(v);
            rows[i].push_back({name, variantName(v),
                               std::to_string(b.program.size()),
                               std::to_string(b.staticCondBranches),
                               std::to_string(b.staticWishJumps),
                               std::to_string(b.staticWishJoins),
                               std::to_string(b.staticWishLoops)});
        }
    });

    Table t({"benchmark", "variant", "uops", "cond-br", "wish-jump",
             "wish-join", "wish-loop"});
    for (auto &bench : rows)
        for (auto &row : bench)
            t.addRow(std::move(row));
    t.print(std::cout);
    cli.addTable("table", t);
    return cli.finish();
}
