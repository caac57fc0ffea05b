/**
 * @file
 * Predictor × variant sweep: do wish branches still win under TAGE?
 *
 * The paper's evaluation (and the Table-3/Figure-12 reproductions in
 * this repo) fixes one front end: the McFarling hybrid with a JRS
 * confidence estimator. Wish branches' whole value proposition rests on
 * that front end being imperfect — a wish jump pays its predication tax
 * only on branches confidence flags as likely-wrong. A stronger
 * predictor shrinks the pool of mispredicted branches (less for wish
 * branches to save); a weaker one grows it. This sweep runs every
 * Table-3 binary variant on every benchmark under the whole predictor
 * zoo (hybrid, bimodal, two-level, TAGE) × confidence estimator (JRS,
 * up/down, TAGE's free provider-based estimate) and reports, per cell,
 * IPC, mispredictions per 1k retired µops, and the attrib.* CPI stack.
 *
 * The headline table gives the wish-jump/join/loop speedup over the
 * normal binary per predictor front end: if its geomean stays above
 * 1.0x in the TAGE columns, adaptive predication still pays when the
 * predictor is a generation better than the paper's.
 *
 * Under run_matrix --smoke (cli.smoke()) the sweep drops to three
 * benchmarks × three front ends × {normal, wish-jjl}, enough to keep
 * every factory path hot in CI without simulating all 270 cells.
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

/** One front-end point: a branch predictor plus confidence estimator. */
struct FrontEnd
{
    const char *label;
    PredictorKind predictor;
    ConfKind conf;
};

const FrontEnd kFrontEnds[] = {
    {"hybrid+jrs", PredictorKind::Hybrid, ConfKind::Jrs},
    {"bimodal+jrs", PredictorKind::Bimodal, ConfKind::Jrs},
    {"twolevel+jrs", PredictorKind::TwoLevel, ConfKind::Jrs},
    {"tage+jrs", PredictorKind::Tage, ConfKind::Jrs},
    {"tage+tageconf", PredictorKind::Tage, ConfKind::Tage},
    {"tage+updown", PredictorKind::Tage, ConfKind::UpDown},
};

/** The smoke schedule keeps one classic, one TAGE-with-JRS and the
 *  TAGE-native-confidence point, so both factories and the dynamic_cast
 *  wiring stay covered. */
const char *const kSmokeFrontEnds[] = {"hybrid+jrs", "tage+jrs",
                                       "tage+tageconf"};

struct Cell
{
    std::size_t fe;
    BinaryVariant variant;
    std::size_t bench;
    RunOutcome out;
};

} // namespace

int
predictor_sweep(BenchCli &cli)
{
    const bool smoke = cli.smoke();
    printBanner(std::cout,
                "Predictor x variant sweep: wish branches under a "
                "stronger (and weaker) front end",
                smoke ? "smoke schedule; input A"
                      : "all Table-3 variants, all benchmarks, input A");

    std::vector<FrontEnd> fes;
    if (smoke) {
        for (const FrontEnd &fe : kFrontEnds)
            for (const char *want : kSmokeFrontEnds)
                if (std::string(fe.label) == want)
                    fes.push_back(fe);
    } else {
        fes.assign(std::begin(kFrontEnds), std::end(kFrontEnds));
    }

    std::vector<BinaryVariant> variants;
    if (smoke)
        variants = {BinaryVariant::Normal,
                    BinaryVariant::WishJumpJoinLoop};
    else
        variants.assign(std::begin(kAllVariants),
                        std::end(kAllVariants));

    std::vector<std::string> benches = workloadNames();
    if (smoke)
        benches.resize(3);

    // Compile each benchmark once; every cell shares the binaries.
    std::vector<CompiledWorkload> workloads(benches.size());
    ParallelRunner &pool = ParallelRunner::shared();
    pool.forEach(benches.size(), [&](std::size_t i) {
        workloads[i] = compileWorkload(benches[i]);
    });

    std::vector<Cell> cells;
    for (std::size_t f = 0; f < fes.size(); ++f)
        for (BinaryVariant v : variants)
            for (std::size_t b = 0; b < benches.size(); ++b)
                cells.push_back(Cell{f, v, b, {}});

    pool.forEach(cells.size(), [&](std::size_t i) {
        Cell &c = cells[i];
        SimParams p;
        p.predictor = fes[c.fe].predictor;
        p.confKind = fes[c.fe].conf;
        p.collectAttribution = true;
        c.out = run(programFor(workloads[c.bench], c.variant, InputSet::A), p);
    });

    // Index for the summary tables: cycles[fe][variant][bench].
    std::map<std::string, std::uint64_t> cycles;
    auto key = [&](std::size_t f, BinaryVariant v, std::size_t b) {
        return std::string(fes[f].label) + "/" + variantName(v) + "/" +
               benches[b];
    };
    json::Value jcells = json::Value::array();
    for (const Cell &c : cells) {
        cycles[key(c.fe, c.variant, c.bench)] = c.out.result.cycles;

        json::Value jc = json::Value::object();
        jc["predictor"] = fes[c.fe].label;
        jc["variant"] = variantName(c.variant);
        jc["benchmark"] = benches[c.bench];
        jc["cycles"] = c.out.result.cycles;
        jc["retired_uops"] = c.out.result.retiredUops;
        jc["ipc"] = c.out.result.cycles
                        ? static_cast<double>(c.out.result.retiredUops) /
                              static_cast<double>(c.out.result.cycles)
                        : 0.0;
        jc["mispredicts_per_1k_uops"] = c.out.mispredictsPer1K();
        json::Value attrib = json::Value::object();
        for (const auto &st : c.out.stats)
            if (st.first.rfind("attrib.", 0) == 0)
                attrib[st.first.substr(7)] = st.second;
        jc["attrib"] = std::move(attrib);
        jcells.push(std::move(jc));
    }

    // Headline: wish-jump/join/loop speedup over the normal binary,
    // per front end.
    const BinaryVariant best = BinaryVariant::WishJumpJoinLoop;
    std::vector<std::string> header = {"benchmark"};
    for (const FrontEnd &fe : fes)
        header.push_back(fe.label);
    Table speedups(header);
    json::Value jspeed = json::Value::object();
    std::vector<std::vector<double>> perFe(fes.size());
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::vector<std::string> row = {benches[b]};
        for (std::size_t f = 0; f < fes.size(); ++f) {
            const double s =
                static_cast<double>(
                    cycles[key(f, BinaryVariant::Normal, b)]) /
                static_cast<double>(cycles[key(f, best, b)]);
            perFe[f].push_back(s);
            row.push_back(Table::num(s, 3) + "x");
            jspeed[std::string(fes[f].label) + "/" + benches[b]] = s;
        }
        speedups.addRow(std::move(row));
    }
    std::vector<std::string> gmRow = {"geomean"};
    json::Value jgm = json::Value::object();
    for (std::size_t f = 0; f < fes.size(); ++f) {
        const double g = geomean(perFe[f]);
        gmRow.push_back(Table::num(g, 3) + "x");
        jgm[fes[f].label] = g;
    }
    speedups.addRow(std::move(gmRow));
    std::cout << "wish-jump/join/loop speedup over the normal binary\n";
    speedups.print(std::cout);

    // Context: how much each front end actually mispredicts on the
    // normal binary — the head-room wish branches can convert.
    Table rates(header);
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::vector<std::string> row = {benches[b]};
        for (std::size_t f = 0; f < fes.size(); ++f) {
            for (const Cell &c : cells)
                if (c.fe == f && c.bench == b &&
                    c.variant == BinaryVariant::Normal)
                    row.push_back(
                        Table::num(c.out.mispredictsPer1K(), 2));
        }
        rates.addRow(std::move(row));
    }
    std::cout << "\nmispredicts per 1k retired uops, normal binary\n";
    rates.print(std::cout);

    bool tageStillWins = true;
    for (std::size_t f = 0; f < fes.size(); ++f)
        if (fes[f].predictor == PredictorKind::Tage &&
            geomean(perFe[f]) <= 1.0)
            tageStillWins = false;
    std::cout << "\nUnder TAGE front ends, wish branches "
              << (tageStillWins ? "still win on geomean."
                                : "no longer pay on geomean.")
              << "\n";

    cli.addTable("speedup_table", speedups);
    cli.addTable("mispredict_table", rates);
    cli.add("cells", std::move(jcells));
    cli.add("speedup_vs_normal", std::move(jspeed));
    cli.add("speedup_geomean", std::move(jgm));
    cli.add("wish_wins_under_tage", json::Value(tageStillWins));
    cli.add("smoke", json::Value(smoke));
    cli.add("cell_count",
            json::Value(static_cast<std::uint64_t>(cells.size())));
    return cli.finish();
}
