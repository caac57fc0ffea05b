/**
 * @file
 * Shared scaffolding for the figure-reproduction binaries: run a set of
 * labeled (variant, machine) configurations over the whole benchmark
 * suite and print execution time normalized to the normal-branch binary,
 * with the paper's AVG and AVGnomcf summary columns (§2.2 footnote 2).
 *
 * Every (benchmark, series) simulation is independent, so the matrix is
 * fanned out across a ParallelRunner: each benchmark is compiled once,
 * its per-variant programs are built once and shared read-only, and all
 * runs execute concurrently. Results are reassembled in benchmark/series
 * order, so the output is bit-identical to a serial execution no matter
 * how many worker threads ran the jobs (WISC_JOBS=1 forces the serial
 * path).
 */

#ifndef WISC_HARNESS_EXPERIMENTS_HH_
#define WISC_HARNESS_EXPERIMENTS_HH_

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace wisc {

/** One experiment series (a bar color in the paper's figures). */
struct SeriesSpec
{
    std::string label;
    BinaryVariant variant = BinaryVariant::Normal;
    SimParams params;
};

/** Result matrix: rows = benchmarks (+AVG/AVGnomcf), cols = series. */
struct NormalizedResults
{
    std::vector<std::string> benchmarks;
    std::vector<std::string> seriesLabels;
    /** relTime[bench][series], normalized to the normal binary. */
    std::vector<std::vector<double>> relTime;
    std::vector<double> avg;
    std::vector<double> avgNoMcf;

    /** Raw baseline run per benchmark (the normalization denominator). */
    std::vector<RunOutcome> baseline;
    /** Raw run per cell: outcomes[bench][series]. */
    std::vector<std::vector<RunOutcome>> outcomes;
};

/**
 * Run every benchmark under the baseline (normal binary, default
 * machine unless baselineParams overrides) and under each series;
 * normalize. jobs == 0 sizes the worker pool from WISC_JOBS /
 * hardware_concurrency(); jobs == 1 runs serially.
 */
NormalizedResults runNormalizedExperiment(
    const std::vector<SeriesSpec> &series, InputSet input,
    const SimParams &baselineParams = SimParams{},
    const std::vector<std::string> &benchmarks = workloadNames(),
    unsigned jobs = 0);

/** Print a NormalizedResults matrix as the paper-style table. */
void printNormalized(std::ostream &os, const NormalizedResults &r);

/** Geometric mean of positive values; 0 for an empty list. */
double geomean(const std::vector<double> &xs);

} // namespace wisc

#endif // WISC_HARNESS_EXPERIMENTS_HH_
