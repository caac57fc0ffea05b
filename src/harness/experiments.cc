#include "harness/experiments.hh"

#include <cmath>
#include <map>
#include <optional>

#include "common/log.hh"
#include "harness/parallel_runner.hh"
#include "harness/table.hh"

namespace wisc {

NormalizedResults
runNormalizedExperiment(const std::vector<SeriesSpec> &series,
                        InputSet input, const SimParams &baselineParams,
                        const std::vector<std::string> &benchmarks,
                        unsigned jobs)
{
    if (benchmarks.empty())
        wisc_fatal("runNormalizedExperiment: empty benchmark list (the "
                   "AVG column would divide by zero)");

    NormalizedResults out;
    out.benchmarks = benchmarks;
    for (const auto &s : series)
        out.seriesLabels.push_back(s.label);
    out.avg.assign(series.size(), 0.0);
    out.avgNoMcf.assign(series.size(), 0.0);

    // jobs == 0 fans out through the process-wide pool, so experiments
    // sharing one process (bench/run_matrix) share one set of workers;
    // an explicit count gets a private pool of exactly that width.
    std::optional<ParallelRunner> privatePool;
    if (jobs)
        privatePool.emplace(jobs);
    ParallelRunner &pool = jobs ? *privatePool : ParallelRunner::shared();

    const std::size_t nb = benchmarks.size();
    const std::size_t runsPer = series.size() + 1; // slot 0 = baseline

    // Phase 1: compile each workload once and build each distinct
    // variant's program once. Programs are immutable during simulation,
    // so the run jobs share them read-only.
    std::vector<std::map<BinaryVariant, Program>> progs(nb);
    pool.forEach(nb, [&](std::size_t b) {
        CompiledWorkload w = compileWorkload(benchmarks[b]);
        auto &byVariant = progs[b];
        byVariant.emplace(BinaryVariant::Normal,
                          programFor(w, BinaryVariant::Normal, input));
        for (const SeriesSpec &s : series)
            if (!byVariant.count(s.variant))
                byVariant.emplace(s.variant,
                                  programFor(w, s.variant, input));
    });

    // Phase 2: every (benchmark, run) cell is an independent job with
    // its own Core and StatSet.
    std::vector<RunOutcome> runs(nb * runsPer);
    pool.forEach(nb * runsPer, [&](std::size_t k) {
        const std::size_t b = k / runsPer;
        const std::size_t r = k % runsPer;
        const BinaryVariant v =
            r == 0 ? BinaryVariant::Normal : series[r - 1].variant;
        const SimParams &p =
            r == 0 ? baselineParams : series[r - 1].params;
        runs[k] = run(progs[b].at(v), p);
    });

    // Reassemble in benchmark/series order: identical arithmetic to a
    // serial sweep, so the matrix is independent of the worker count.
    unsigned noMcfCount = 0;
    for (std::size_t b = 0; b < nb; ++b) {
        const std::string &name = benchmarks[b];
        RunOutcome &base = runs[b * runsPer];

        std::vector<double> row;
        std::vector<RunOutcome> rowOutcomes;
        for (std::size_t s = 0; s < series.size(); ++s) {
            RunOutcome &r = runs[b * runsPer + s + 1];
            double rel = static_cast<double>(r.result.cycles) /
                         static_cast<double>(base.result.cycles);
            row.push_back(rel);
            rowOutcomes.push_back(std::move(r));
        }
        for (std::size_t i = 0; i < row.size(); ++i) {
            out.avg[i] += row[i];
            if (name != "mcf")
                out.avgNoMcf[i] += row[i];
        }
        if (name != "mcf")
            ++noMcfCount;
        out.relTime.push_back(std::move(row));
        out.outcomes.push_back(std::move(rowOutcomes));
        out.baseline.push_back(std::move(base));
    }

    for (std::size_t i = 0; i < series.size(); ++i) {
        out.avg[i] /= static_cast<double>(benchmarks.size());
        if (noMcfCount)
            out.avgNoMcf[i] /= static_cast<double>(noMcfCount);
    }
    return out;
}

void
printNormalized(std::ostream &os, const NormalizedResults &r)
{
    std::vector<std::string> headers = {"benchmark"};
    headers.insert(headers.end(), r.seriesLabels.begin(),
                   r.seriesLabels.end());
    Table t(headers);
    for (std::size_t b = 0; b < r.benchmarks.size(); ++b) {
        std::vector<std::string> row = {r.benchmarks[b]};
        for (double v : r.relTime[b])
            row.push_back(Table::num(v));
        t.addRow(std::move(row));
    }
    std::vector<std::string> avgRow = {"AVG"};
    for (double v : r.avg)
        avgRow.push_back(Table::num(v));
    t.addRow(std::move(avgRow));
    std::vector<std::string> avgnRow = {"AVGnomcf"};
    for (double v : r.avgNoMcf)
        avgnRow.push_back(Table::num(v));
    t.addRow(std::move(avgnRow));
    t.print(os);
}

double
geomean(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return xs.empty() ? 0.0 : std::exp(acc / xs.size());
}

} // namespace wisc
