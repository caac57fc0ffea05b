/**
 * @file
 * Shared command line for the bench/ experiment binaries.
 *
 * Every output-related option lives in one place — OutputSpec — parsed
 * from one flag table that also generates the --help text, so the
 * experiment binaries cannot drift apart:
 *
 *   --json PATH       structured results document (fallback: the
 *                     WISC_RESULTS_JSON environment variable)
 *   --cache DIR       persistent run cache (fallback: WISC_CACHE_DIR,
 *                     then the compiled-in -DWISC_CACHE_DEFAULT_DIR)
 *   --no-cache        disable the persistent layer entirely
 *
 * Every bench binary prints its paper-style table to stdout exactly as
 * before; on top of that, a JSON destination writes a structured
 * document:
 *
 *   { "bench": name, "schema_version": 1, "jobs": N,
 *     "wall_seconds": t,
 *     "cache_hits": d, "cache_misses": m, "dedup_hits": h,
 *     <sections added via add()/addResults()/...> }
 *
 * cache_hits counts persistent-store replays, dedup_hits in-process
 * coalesced/memoized requests, cache_misses fresh simulations — all
 * deltas over this CLI's lifetime, so the numbers stay per-experiment
 * even when many experiments share one process (bench/run_matrix).
 *
 * Constructing a BenchCli also opts the process into the run cache:
 * in-process dedup always, and the persistent layer when a directory
 * is configured (`--no-cache` wins over everything).
 *
 * A benchmark whose results flow through addResults() — or that calls
 * noteSimulated() itself — also gets "simulated_uops",
 * "simulated_cycles", "uops_per_second", and "cycles_per_second", the
 * simulator-throughput figures of merit.
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

/**
 * Everything the bench command line says about *outputs*: where the
 * JSON goes and how runs are cached. Parsed in exactly one place
 * (parse()), from the same flag table that renders `--help`.
 */
struct OutputSpec
{
    std::string jsonPath;  ///< --json / WISC_RESULTS_JSON ("" = none)
    std::string cacheDir;  ///< --cache (before env/default resolution)
    bool noCache = false;  ///< --no-cache: kill the persistent layer

    /** Parse argv (env fallbacks applied); prints usage and exits on
     *  --help (0) or an unknown flag (2). */
    static OutputSpec parse(int argc, char **argv,
                            const std::string &name);
};

class BenchCli
{
  public:
    /** Parses argv via OutputSpec::parse; exits with usage on unknown
     *  flags. */
    BenchCli(int argc, char **argv, std::string name);

    /**
     * Embedded constructor (no argv): used by orchestrators like
     * bench/run_matrix that run many experiments in one process. The
     * document is built as usual but finish() never writes a file —
     * the orchestrator collects it via document().
     */
    explicit BenchCli(std::string name);

    /** The parsed output configuration. */
    const OutputSpec &output() const { return spec_; }

    /** True when a --json/WISC_RESULTS_JSON destination is set. */
    bool jsonRequested() const { return !spec_.jsonPath.empty(); }

    /** Attach a section to the emitted document. */
    void add(const std::string &key, json::Value v);
    void addResults(const std::string &key, const NormalizedResults &r);
    void addTable(const std::string &key, const Table &t);

    /** Account simulated work (retired µops and simulated cycles) so
     *  finish() can report simulator throughput next to wall_seconds.
     *  Call once per completed simulation; accumulates. addResults()
     *  calls this for every RunOutcome it serializes. */
    void
    noteSimulated(std::uint64_t uops, std::uint64_t cycles)
    {
        simUops_ += uops;
        simCycles_ += cycles;
    }

    std::uint64_t simulatedUops() const { return simUops_; }
    std::uint64_t simulatedCycles() const { return simCycles_; }

    /** Wall seconds elapsed since construction. */
    double elapsedSeconds() const;

    /** Finalize the document (timings, throughput, cache counters) and
     *  write it if a destination is set. Returns the process exit
     *  code. */
    int finish();

    /** The document built so far (complete after finish()). */
    const json::Value &document() const { return doc_; }

  private:
    void finalizeDoc();

    std::string name_;
    OutputSpec spec_;
    json::Value doc_ = json::Value::object();
    std::chrono::steady_clock::time_point start_;
    RunCacheStats cacheStart_; ///< global-service counters at start
    std::uint64_t simUops_ = 0;
    std::uint64_t simCycles_ = 0;
};

} // namespace wisc

#endif // WISC_HARNESS_BENCH_CLI_HH_
