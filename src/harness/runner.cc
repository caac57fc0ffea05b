#include "harness/runner.hh"

#include "common/log.hh"
#include "harness/run_cache.hh"
#include "harness/sampled_runner.hh"

namespace wisc {

RunOutcome
captureRun(const Program &prog, const SimParams &params,
           const std::vector<ProbeSink *> &sinks)
{
    if (params.sampling.enabled) {
        wisc_assert(sinks.empty(),
                    "sampled runs cannot drive probe sinks: windows are "
                    "disjoint detailed legs, not one continuous run");
        return runSampled(prog, params);
    }
    StatSet stats;
    const SimResult result = simulate(prog, params, stats, sinks);
    return {stats.record(), result};
}

RunOutcome
run(const Program &prog, const SimParams &params)
{
    return RunService::global().run(prog, params);
}

} // namespace wisc
