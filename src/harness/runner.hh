/**
 * @file
 * Experiment runner: executes a Program (a workload variant comes from
 * programFor()) on the timing core and captures both the headline result
 * and a snapshot of every statistic — counters, histograms, *and* tables —
 * so experiment binaries can post-process freely (and the JSON emitter
 * can serialize complete runs).
 *
 * run(prog, params) is the one cached request: it is served through
 * the global RunService, so identical requests dedup/replay when the
 * run cache is on (run_matrix turns it on). captureRun() always
 * simulates; timed legs and runs that attach probe sinks call it,
 * because a replay could neither be timed nor drive the observers.
 */

#ifndef WISC_HARNESS_RUNNER_HH_
#define WISC_HARNESS_RUNNER_HH_

#include <map>
#include <string>
#include <vector>

#include "uarch/core.hh"
#include "workloads/workload.hh"

namespace wisc {

/** Value snapshot of one histogram (bucket i counts value i; the last
 *  bucket is the overflow bucket). */
struct HistogramSnapshot
{
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
};

/** Value snapshot of one StatTable: the column names plus every row. */
struct TableSnapshot
{
    std::vector<std::string> columns;
    std::map<std::uint64_t, std::vector<std::uint64_t>> rows;
};

/** Everything one simulation produced. */
struct RunOutcome
{
    SimResult result;
    std::map<std::string, std::uint64_t> stats;
    std::map<std::string, HistogramSnapshot> hists;
    std::map<std::string, TableSnapshot> tables;

    /**
     * Counter value, tolerant of absent names. Use only for statistics
     * that are legitimately registration-on-first-event (the per-class
     * wish.* counters); for always-present statistics use require(), so
     * a misspelled name cannot silently read as zero.
     */
    std::uint64_t
    stat(const std::string &name) const
    {
        auto it = stats.find(name);
        return it == stats.end() ? 0 : it->second;
    }

    /** Counter value; hard error (FatalError) if the run never
     *  registered the name (the error names the actual kind when the
     *  name exists as a histogram or table). */
    std::uint64_t require(const std::string &name) const;

    /** Mispredicted conditional branches per 1000 retired µops. */
    double
    mispredictsPer1K() const
    {
        return result.retiredUops
                   ? 1000.0 * static_cast<double>(
                                  require("core.branch_mispredicts")) /
                         static_cast<double>(result.retiredUops)
                   : 0.0;
    }
};

/** Execute one simulation through RunService::global(). */
RunOutcome run(const Program &prog, const SimParams &params = {});

/**
 * The always-simulate primitive beneath run(): execute the program and
 * snapshot every statistic, attaching the given sinks for the duration.
 * This is the run cache's producer path and the reference its tests
 * compare replayed outcomes against.
 */
RunOutcome captureRun(const Program &prog, const SimParams &params,
                      const std::vector<ProbeSink *> &sinks = {});

} // namespace wisc

#endif // WISC_HARNESS_RUNNER_HH_
