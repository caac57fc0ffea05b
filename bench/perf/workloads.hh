/**
 * @file
 * The benchmark's four workloads. Each is a closed batch: a fixed set
 * of operations built by setup() from the seed, run to completion by
 * round(), and repeated. Every operation's output is checked against a
 * reference made in setup(), and folded into an order-independent
 * digest of the simulated statistics.
 *
 *   detail  — serial full-detail core runs (the cycle loop)
 *   sampled — SMARTS-sampled runs (fast-forward plus detailed windows)
 *   sweep   — the experiment matrix through one run cache, 4 threads
 *   fuzz    — differential fuzz checks (per-run core set-up dominates)
 */

#ifndef WISC_BENCH_PERF_WORKLOADS_HH_
#define WISC_BENCH_PERF_WORKLOADS_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perf {

/** The outcome of one round. */
struct Round
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /** Sum of per-op hashes of the simulated results and counters:
     *  independent of run order, so of the seed's shuffle. */
    std::uint64_t digest = 0;
};

/** Per-layer metric values by name; a name a workload leaves unset
 *  reads 0 (the workload makes no call into that layer). */
using LayerValues = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the operations and their references anew. */
    virtual void setup() = 0;

    /** Run every operation once. */
    virtual Round round() = 0;

    /** Make exactly one operation's reference wrong (--self-test). */
    virtual void corruptReference() = 0;

    /** Calls made only to measure a layer (spans named "probe.*"), run
     *  once after the traced rounds. */
    virtual void probe() {}

    /** Derive this workload's per-layer metrics from the recorded
     *  spans: the traced setups ("setup"), rounds ("round") and
     *  probes. */
    virtual void layerMetrics(const std::vector<Span> &spans,
                              LayerValues &out) const = 0;
};

/** "detail", "sampled", "sweep" or "fuzz"; nullptr for anything else.
 *  'smoke' shrinks every batch to about 1/20. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool smoke);

/** A per-layer metric as BENCHMARK.json lists it. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in print order. */
const std::vector<LayerMetric> &layerCatalogue();

/** Quantile of the samples with linear interpolation; 0 for none. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

} // namespace perf

#endif // WISC_BENCH_PERF_WORKLOADS_HH_
