/**
 * @file
 * Dynamic predication vs compiler wish branches, head to head.
 *
 * The paper's wish branches need the compiler to mark candidate
 * branches ahead of time; the merge-point mechanism (SimParams::dynPred
 * = MergePoint) predicates *unmarked* low-confidence branches by
 * predicting their reconvergence point in hardware, and the fetch gate
 * (FetchGate) is the cheaper fallback that merely throttles fetch on
 * low confidence. This sweep runs four modes on every benchmark:
 *
 *   baseline     normal binary, dynPred=Off        (nothing adaptive)
 *   wish-jjl     wish binary, compiler wish branches (the paper)
 *   merge-point  normal binary, dynPred=MergePoint  (hardware-only)
 *   fetch-gate   normal binary, dynPred=FetchGate   (hardware-only)
 *
 * under two predictor front ends (the paper's hybrid+JRS and TAGE+JRS),
 * with the attrib.* CPI stack collected per cell; the attribution
 * engine asserts that each stack sums exactly to the cell's cycles
 * (AttributionEngine::finish), in every mode. The headline table
 * reports each adaptive mode's speedup over baseline per front end,
 * answering: how much of the compiler-marked win can hardware recover
 * on its own?
 *
 * Under run_matrix --smoke (cli.smoke()) the sweep drops to three
 * benchmarks on the hybrid front end only.
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness/bench_cli.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/table.hh"

using namespace wisc;

namespace {

struct FrontEnd
{
    const char *label;
    PredictorKind predictor;
    ConfKind conf;
};

const FrontEnd kFrontEnds[] = {
    {"hybrid+jrs", PredictorKind::Hybrid, ConfKind::Jrs},
    {"tage+jrs", PredictorKind::Tage, ConfKind::Jrs},
};

/** One execution mode: binary variant + dynamic-predication knobs. */
struct Mode
{
    const char *label;
    BinaryVariant variant;
    bool wishEnabled;
    DynPredMode dynPred;
};

const Mode kModes[] = {
    {"baseline", BinaryVariant::Normal, false, DynPredMode::Off},
    {"wish-jjl", BinaryVariant::WishJumpJoinLoop, true, DynPredMode::Off},
    {"merge-point", BinaryVariant::Normal, false, DynPredMode::MergePoint},
    {"fetch-gate", BinaryVariant::Normal, false, DynPredMode::FetchGate},
};

struct Cell
{
    std::size_t fe;
    std::size_t mode;
    std::size_t bench;
    RunOutcome out;
};

} // namespace

int
dynpred_sweep(BenchCli &cli)
{
    const bool smoke = cli.smoke();
    printBanner(std::cout,
                "Dynamic predication (merge-point / fetch-gate) vs "
                "compiler wish branches",
                smoke ? "smoke schedule; input A"
                      : "all benchmarks, hybrid+jrs and tage+jrs, "
                        "input A");

    std::vector<FrontEnd> fes(std::begin(kFrontEnds),
                              std::end(kFrontEnds));
    if (smoke)
        fes.resize(1);

    std::vector<std::string> benches = workloadNames();
    if (smoke)
        benches.resize(3);

    std::vector<CompiledWorkload> workloads(benches.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(benches.size(), [&](std::size_t i) {
        workloads[i] = compileWorkload(benches[i]);
    });

    const std::size_t nModes = std::size(kModes);
    std::vector<Cell> cells;
    for (std::size_t f = 0; f < fes.size(); ++f)
        for (std::size_t m = 0; m < nModes; ++m)
            for (std::size_t b = 0; b < benches.size(); ++b)
                cells.push_back(Cell{f, m, b, {}});

    pool.forEach(cells.size(), [&](std::size_t i) {
        Cell &c = cells[i];
        const Mode &mode = kModes[c.mode];
        SimParams p;
        p.predictor = fes[c.fe].predictor;
        p.confKind = fes[c.fe].conf;
        p.wishEnabled = mode.wishEnabled;
        p.dynPred = mode.dynPred;
        p.collectAttribution = true;
        c.out = run(
            programFor(workloads[c.bench], mode.variant, InputSet::A), p);
    });

    std::map<std::string, std::uint64_t> cycles;
    auto key = [&](std::size_t f, std::size_t m, std::size_t b) {
        return std::string(fes[f].label) + "/" + kModes[m].label + "/" +
               benches[b];
    };
    json::Value jcells = json::Value::array();
    for (const Cell &c : cells) {
        cycles[key(c.fe, c.mode, c.bench)] = c.out.result.cycles;

        json::Value jc = json::Value::object();
        jc["predictor"] = fes[c.fe].label;
        jc["mode"] = kModes[c.mode].label;
        jc["benchmark"] = benches[c.bench];
        jc["cycles"] = c.out.result.cycles;
        jc["retired_uops"] = c.out.result.retiredUops;
        jc["ipc"] = c.out.result.cycles
                        ? static_cast<double>(c.out.result.retiredUops) /
                              static_cast<double>(c.out.result.cycles)
                        : 0.0;
        jc["mispredicts_per_1k_uops"] = c.out.mispredictsPer1K();
        auto stat = [&](const char *n) -> std::uint64_t {
            auto it = c.out.stats.find(n);
            return it == c.out.stats.end() ? 0 : it->second;
        };
        jc["dyn_triggers"] = stat("dyn.triggers");
        jc["dyn_region_success"] = stat("dyn.region_success");
        jc["dyn_region_failed"] = stat("dyn.region_failed");
        jc["dyn_saved_flushes"] = stat("dyn.saved_flushes");
        jc["dyn_fetch_gates"] = stat("dyn.fetch_gates");
        json::Value attrib = json::Value::object();
        for (const auto &st : c.out.stats)
            if (st.first.rfind("attrib.", 0) == 0)
                attrib[st.first.substr(7)] = st.second;
        jc["attrib"] = std::move(attrib);
        jcells.push(std::move(jc));
    }

    // Headline: each adaptive mode's speedup over the baseline,
    // per front end.
    json::Value jspeed = json::Value::object();
    json::Value jgm = json::Value::object();
    std::vector<Table> tables;
    for (std::size_t m = 1; m < nModes; ++m) {
        std::vector<std::string> header = {"benchmark"};
        for (const FrontEnd &fe : fes)
            header.push_back(fe.label);
        Table t(header);
        std::vector<std::vector<double>> perFe(fes.size());
        for (std::size_t b = 0; b < benches.size(); ++b) {
            std::vector<std::string> row = {benches[b]};
            for (std::size_t f = 0; f < fes.size(); ++f) {
                const double s =
                    static_cast<double>(cycles[key(f, 0, b)]) /
                    static_cast<double>(cycles[key(f, m, b)]);
                perFe[f].push_back(s);
                row.push_back(Table::num(s, 3) + "x");
                jspeed[std::string(kModes[m].label) + "/" +
                       fes[f].label + "/" + benches[b]] = s;
            }
            t.addRow(std::move(row));
        }
        std::vector<std::string> gmRow = {"geomean"};
        for (std::size_t f = 0; f < fes.size(); ++f) {
            const double g = geomean(perFe[f]);
            gmRow.push_back(Table::num(g, 3) + "x");
            jgm[std::string(kModes[m].label) + "/" + fes[f].label] = g;
        }
        t.addRow(std::move(gmRow));
        std::cout << kModes[m].label
                  << " speedup over the baseline binary\n";
        t.print(std::cout);
        std::cout << "\n";
        cli.addTable(std::string(kModes[m].label) + "_speedup", t);
        tables.push_back(std::move(t));
    }

    cli.add("cells", std::move(jcells));
    cli.add("speedup_vs_baseline", std::move(jspeed));
    cli.add("speedup_geomean", std::move(jgm));
    cli.add("smoke", json::Value(smoke));
    cli.add("cell_count",
            json::Value(static_cast<std::uint64_t>(cells.size())));
    return cli.finish();
}
