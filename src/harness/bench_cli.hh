/**
 * @file
 * Shared command line and results document for bench/run_matrix and
 * the bench tools (micro_simspeed, wisc_fuzz).
 *
 * Every output-related option lives in one place — OutputSpec — parsed
 * from one flag table that also generates the --help text. These are
 * the only flags it reads, and it reads no environment variable:
 *
 *   --json PATH       structured results document
 *   --cache DIR       persistent run cache
 *
 * Each BenchCli builds one structured document, which finish() writes
 * to the --json destination; run_matrix nests each experiment's
 * document in its own:
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
 * in-process dedup always, and the persistent layer when `--cache`
 * names a directory.
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
    std::string jsonPath; ///< --json ("" = none)
    std::string cacheDir; ///< --cache ("" = persistent layer off)

    /** Parse argv; prints usage and exits on --help (0) or an unknown
     *  flag (2). */
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
     * Embedded constructor (no argv): bench/run_matrix gives one to
     * each experiment it runs. The document is built as usual but
     * finish() never writes a file — run_matrix collects it via
     * document(). `smoke` asks the experiment for its reduced form.
     */
    BenchCli(std::string name, bool smoke);

    /** True when run_matrix --smoke asked for the reduced experiment. */
    bool smoke() const { return smoke_; }

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
    bool smoke_ = false;
    json::Value doc_ = json::Value::object();
    std::chrono::steady_clock::time_point start_;
    RunCacheStats cacheStart_; ///< global-service counters at start
    std::uint64_t simUops_ = 0;
    std::uint64_t simCycles_ = 0;
};

} // namespace wisc

#endif // WISC_HARNESS_BENCH_CLI_HH_
