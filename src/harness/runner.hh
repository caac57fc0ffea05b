/**
 * @file
 * Experiment runner: executes a Program (a workload variant comes from
 * programFor()) on the timing core and keeps both the headline result
 * and the run's StatRecord — every counter, histogram and table, in the
 * value types the core registered them as — so experiments can
 * post-process freely (and the JSON emitter can serialize complete
 * runs).
 *
 * run(prog, params) is the one cached request: it is served through
 * the global RunService, so identical requests dedup/replay when the
 * run cache is on (run_matrix turns it on). captureRun() always
 * simulates; timed legs and runs that attach probe sinks call it,
 * because a replay could neither be timed nor drive the observers.
 */

#ifndef WISC_HARNESS_RUNNER_HH_
#define WISC_HARNESS_RUNNER_HH_

#include <vector>

#include "uarch/core.hh"
#include "workloads/workload.hh"

namespace wisc {

/** Everything one simulation produced: its result and the value of
 *  every statistic it registered (StatRecord, common/stats.hh). */
struct RunOutcome : StatRecord
{
    SimResult result;

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
 * copy its StatRecord, attaching the given sinks for the duration.
 * This is the run cache's producer path and the reference its tests
 * compare replayed outcomes against.
 */
RunOutcome captureRun(const Program &prog, const SimParams &params,
                      const std::vector<ProbeSink *> &sinks = {});

} // namespace wisc

#endif // WISC_HARNESS_RUNNER_HH_
