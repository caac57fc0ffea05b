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
    RunOutcome out;
    out.result = simulate(prog, params, stats, sinks);
    for (const std::string &name : stats.counterNames())
        out.stats[name] = stats.get(name);
    for (const std::string &name : stats.histogramNames()) {
        const Histogram &h = stats.require<Histogram>(name);
        HistogramSnapshot snap;
        snap.count = h.count();
        snap.buckets.reserve(h.numBuckets());
        for (std::size_t i = 0; i < h.numBuckets(); ++i)
            snap.buckets.push_back(h.bucket(i));
        out.hists.emplace(name, std::move(snap));
    }
    for (const std::string &name : stats.tableNames()) {
        const StatTable &t = stats.require<StatTable>(name);
        TableSnapshot snap;
        snap.columns = t.columns();
        snap.rows = t.rows();
        out.tables.emplace(name, std::move(snap));
    }
    return out;
}

std::uint64_t
RunOutcome::require(const std::string &name) const
{
    auto it = stats.find(name);
    if (it == stats.end()) {
        if (hists.count(name))
            wisc_fatal("run statistic '", name,
                       "' is a histogram, not a counter");
        if (tables.count(name))
            wisc_fatal("run statistic '", name,
                       "' is a table, not a counter");
        wisc_fatal("run produced no statistic '", name,
                   "' (misspelled name?)");
    }
    return it->second;
}

RunOutcome
run(const Program &prog, const SimParams &params)
{
    return RunService::global().run(prog, params);
}

} // namespace wisc
