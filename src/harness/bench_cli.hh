/**
 * @file
 * The results document of bench/run_matrix and the bench tools
 * (micro_simspeed, wisc_fuzz). A BenchCli reads no argv and no
 * environment variable: each program parses its own flags and hands
 * its --json PATH to finish(), which writes the document there.
 * run_matrix gives each experiment its own BenchCli and nests that
 * document in its own:
 *
 *   { "bench": name, "schema_version": 1,
 *     <sections added via add()/addResults()/...>,
 *     "jobs": N, "wall_seconds": t,
 *     "cache_hits": d, "cache_misses": m, "dedup_hits": h,
 *     "cache_corrupt": c,
 *     "provenance": { "build_type": "RelWithDebInfo",
 *                     "compiler": "GNU 12.2.0", "sanitizer": "none",
 *                     "nproc": P } }
 *
 * cache_hits counts persistent-store replays, dedup_hits in-process
 * coalesced/memoized requests, cache_misses fresh simulations — all
 * deltas over this CLI's lifetime, so the numbers stay per-experiment
 * even when many experiments share one process (bench/run_matrix).
 * provenance names the CMake build type, the compiler, the sanitizers
 * ("none" when uninstrumented) and the host's hardware threads; the
 * commit is not recorded.
 *
 * A document reports no simulator throughput: its outcomes may be
 * replays, and its wall clock covers compilation and emulation too.
 * micro_simspeed times each simulation itself and reports
 * "uops_per_sim_second".
 *
 * This is what produces the repo's BENCH_*.json trajectory files.
 */

#ifndef WISC_HARNESS_BENCH_CLI_HH_
#define WISC_HARNESS_BENCH_CLI_HH_

#include <chrono>
#include <string>

#include "common/json.hh"
#include "harness/experiments.hh"
#include "harness/run_cache.hh"
#include "harness/table.hh"

namespace wisc {

class BenchCli
{
  public:
    /** An empty document for the named bench; `smoke` asks an
     *  experiment for its reduced form (run_matrix --smoke). */
    explicit BenchCli(std::string name, bool smoke = false);

    /** True when run_matrix --smoke asked for the reduced experiment. */
    bool smoke() const { return smoke_; }

    /** Attach a section to the emitted document. */
    void add(const std::string &key, json::Value v);
    void addResults(const std::string &key, const NormalizedResults &r);
    void addTable(const std::string &key, const Table &t);

    /** Wall seconds elapsed since construction. */
    double elapsedSeconds() const;

    /** Finalize the document (timings and cache counters) and
     *  write it to jsonPath unless that is empty. Returns the process
     *  exit code: 1 when the file cannot be written. */
    int finish(const std::string &jsonPath = {});

    /** The document built so far (complete after finish()). */
    const json::Value &document() const { return doc_; }

  private:
    void finalizeDoc();

    std::string name_;
    bool smoke_ = false;
    json::Value doc_ = json::Value::object();
    std::chrono::steady_clock::time_point start_;
    RunCacheStats cacheStart_; ///< global-service counters at start
};

} // namespace wisc

#endif // WISC_HARNESS_BENCH_CLI_HH_
