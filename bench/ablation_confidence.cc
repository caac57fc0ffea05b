/**
 * @file
 * Ablation: confidence-estimator design (DESIGN.md §5 item 1). Sweeps the
 * history length, the confidence threshold, and the cold-miss policy of
 * the JRS estimator on the benchmarks most sensitive to it. Shows why
 * the default deviates from Table 2's quoted 16-bit history: with a
 * 512-entry table, long histories dilute contexts until the estimator
 * returns its cold-miss default almost always.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
ablation_confidence(BenchCli &cli)
{
    printBanner(std::cout, "Ablation: JRS confidence estimator design",
                "wish-jjl execution time normalized to the normal binary "
                "(input A)");

    const std::vector<std::string> benches = {"vpr", "mcf"};

    std::vector<std::pair<std::string, CompiledWorkload>> compiled;
    for (const auto &b : benches)
        compiled.emplace_back(b, compileWorkload(b));

    std::vector<std::string> headers = {"hist", "thresh", "miss-policy"};
    headers.insert(headers.end(), benches.begin(), benches.end());
    Table t(headers);

    struct Config
    {
        unsigned hist, thresh;
        bool missHigh;
    };
    std::vector<Config> configs;
    for (unsigned hist : {0u, 8u, 16u})
        for (unsigned thresh : {8u, 13u})
            for (bool missHigh : {false, true})
                configs.push_back({hist, thresh, missHigh});

    std::vector<std::vector<std::string>> rows(configs.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(configs.size(), [&](std::size_t i) {
        const Config &c = configs[i];
        std::vector<std::string> row = {
            std::to_string(c.hist), std::to_string(c.thresh),
            c.missHigh ? "high" : "low"};
        for (auto &kv : compiled) {
            SimParams p;
            p.confHistBits = c.hist;
            p.confThreshold = c.thresh;
            p.confMissIsHigh = c.missHigh;
            double n = static_cast<double>(
                run(RunRequest{kv.second, BinaryVariant::Normal,
                               InputSet::A, p})
                    .result.cycles);
            double w = static_cast<double>(
                run(RunRequest{kv.second,
                               BinaryVariant::WishJumpJoinLoop,
                               InputSet::A, p})
                    .result.cycles);
            row.push_back(Table::num(w / n));
        }
        rows[i] = std::move(row);
    });
    for (auto &row : rows)
        t.addRow(std::move(row));
    t.print(std::cout);
    std::cout << "\nDefault: hist=8, threshold=8, miss=low.\n";
    cli.addTable("table", t);
    return cli.finish();
}
