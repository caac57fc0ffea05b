/**
 * @file
 * Figure 2 cross-check: does direct cycle attribution agree with the
 * paper's re-run-with-oracle-knobs decomposition?
 *
 * Figure 2 quantifies predication's two overheads by *re-running* with
 * idealizations: NO-DEPEND (predicate data dependences removed) and
 * NO-FETCH (predicated-FALSE µops free to fetch). The attribution
 * engine measures the same two overheads *directly* in a single run of
 * the unmodified machine: attrib.pred_wait (issue stalled on a
 * predicate) and attrib.pred_nop (retire slots burned on FALSE µops).
 *
 * The two methods count different things — knob removal measures the
 * *marginal* end-to-end speedup (which goes to zero under a concurrent
 * limiter: removing a dependence buys nothing if fetch bandwidth binds
 * the same cycles), attribution charges each cycle to its *proximate*
 * limiter — so the cross-check asks for *ordering* agreement per
 * benchmark: whichever overhead attribution says dominates should also
 * be the knob whose removal buys more. Rows where the re-run ordering
 * signal |d(no-depend) − d(no-fetch)| is under 2% of cycles carry no
 * decisive signal and are reported but not scored. The paper's shape:
 * dependence effects exceed fetch effects on average, and mcf is
 * dominated by predicate dependences.
 */

#include <iostream>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

int
fig02_attribution(BenchCli &cli)
{
    printBanner(std::cout,
                "Figure 2 cross-check: direct attribution vs re-run "
                "decomposition",
                "BASE-MAX binary, input A; cycles as % of the BASE-MAX "
                "run");

    const std::vector<std::string> &names = workloadNames();
    struct Row
    {
        bool agree = false;
        bool decisive = false;
        std::vector<std::string> cells;
    };
    std::vector<Row> rows(names.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(names.size(), [&](std::size_t i) {
        const std::string &name = names[i];
        CompiledWorkload w = compileWorkload(name);

        // Direct: one attributed run of the real machine.
        SimParams attr;
        attr.collectAttribution = true;
        RunOutcome direct = run(
            RunRequest{w, BinaryVariant::BaseMax, InputSet::A, attr});
        const double total =
            static_cast<double>(direct.result.cycles);
        const std::uint64_t predWait = direct.require("attrib.pred_wait");
        const std::uint64_t predNop = direct.require("attrib.pred_nop");

        // Re-run: the paper's idealization ladder.
        SimParams noDep;
        noDep.oracle.noDepend = true;
        SimParams noDepNoFetch = noDep;
        noDepNoFetch.oracle.noFetch = true;
        RunOutcome nd = run(
            RunRequest{w, BinaryVariant::BaseMax, InputSet::A, noDep});
        RunOutcome ndnf = run(RunRequest{
            w, BinaryVariant::BaseMax, InputSet::A, noDepNoFetch});
        const std::int64_t dDep =
            static_cast<std::int64_t>(direct.result.cycles) -
            static_cast<std::int64_t>(nd.result.cycles);
        const std::int64_t dFetch =
            static_cast<std::int64_t>(nd.result.cycles) -
            static_cast<std::int64_t>(ndnf.result.cycles);

        const bool directDep = predWait >= predNop;
        const bool rerunDep = dDep >= dFetch;
        rows[i].agree = directDep == rerunDep;
        rows[i].decisive =
            static_cast<double>(dDep > dFetch ? dDep - dFetch
                                              : dFetch - dDep) >=
            0.02 * total;
        auto pct = [&](double v) {
            return Table::num(100.0 * v / total, 1) + "%";
        };
        rows[i].cells = {name,
                         pct(static_cast<double>(predWait)),
                         pct(static_cast<double>(predNop)),
                         pct(static_cast<double>(dDep)),
                         pct(static_cast<double>(dFetch)),
                         directDep ? "depend" : "fetch",
                         rows[i].decisive ? (rerunDep ? "depend" : "fetch")
                                          : "(noise)",
                         !rows[i].decisive ? "-"
                         : rows[i].agree   ? "yes"
                                           : "NO"};
    });

    Table t({"benchmark", "pred-wait", "pred-nop", "d(no-depend)",
             "d(no-fetch)", "direct-says", "rerun-says", "agree"});
    unsigned agreeCount = 0;
    unsigned decisiveCount = 0;
    for (Row &row : rows) {
        if (row.decisive) {
            ++decisiveCount;
            agreeCount += row.agree ? 1 : 0;
        }
        t.addRow(std::move(row.cells));
    }
    t.print(std::cout);
    std::cout << "\nOrdering agreement on " << agreeCount << "/"
              << decisiveCount << " benchmarks with a decisive re-run "
              << "signal (|d(no-depend) - d(no-fetch)| >= 2% of "
              << "cycles).\nPaper shape: dependence overhead dominates "
              << "fetch overhead (mcf most of all).\n";

    cli.addTable("table", t);
    cli.add("agree_count",
            json::Value(static_cast<std::uint64_t>(agreeCount)));
    cli.add("decisive_count",
            json::Value(static_cast<std::uint64_t>(decisiveCount)));
    cli.add("benchmark_count",
            json::Value(static_cast<std::uint64_t>(names.size())));
    return cli.finish();
}
