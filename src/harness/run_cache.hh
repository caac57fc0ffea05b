/**
 * @file
 * Two-layer run memoization for deterministic simulations.
 *
 * Every WISC simulation is a pure function of (Program, SimParams):
 * Programs are immutable during runs (the property the ParallelRunner
 * already relies on for read-only sharing) and the core is fully
 * deterministic. RunService exploits that purity:
 *
 *  - Layer 1, in-process dedup: requests are keyed by
 *    (Program::fingerprint(), SimParams::fingerprint()). Concurrent
 *    identical requests from ParallelRunner jobs coalesce onto one
 *    shared future, and with memoization enabled completed outcomes are
 *    retained, so each distinct simulation executes exactly once per
 *    process no matter how many experiments request it.
 *
 *  - Layer 2, persistent cache: an optional content-addressed on-disk
 *    store (`run_matrix --cache DIR`) holding the *complete*
 *    RunOutcome — SimResult, every counter, histogram, and table — in
 *    a versioned, checksummed binary format written via tmp+rename so
 *    readers never see a partial entry. The format is
 *    stated once, as StateIO walks (common/bytes.hh) of the entry frame
 *    and of the RunOutcome that both encode and decode run. Corrupt,
 *    truncated, or version-mismatched entries are rejected (warned once
 *    each, counted) and fall back to a fresh simulation that overwrites
 *    the bad entry.
 *
 * The global() instance backs run(prog, params). It starts as a pure
 * pass-through (no memo, no disk), so tests, examples and tools
 * simulate every request; run_matrix alone opts in.
 */

#ifndef WISC_HARNESS_RUN_CACHE_HH_
#define WISC_HARNESS_RUN_CACHE_HH_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "harness/runner.hh"

namespace wisc {

/** Content-addressed identity of one simulation request. */
struct RunKey
{
    std::uint64_t prog = 0;   ///< Program::fingerprint()
    std::uint64_t params = 0; ///< SimParams::fingerprint()

    bool
    operator<(const RunKey &o) const
    {
        return prog != o.prog ? prog < o.prog : params < o.params;
    }
    bool
    operator==(const RunKey &o) const
    {
        return prog == o.prog && params == o.params;
    }
};

/** Where each served request came from. Counters only increase. */
struct RunCacheStats
{
    std::uint64_t dedupHits = 0;  ///< joined an in-flight or memoized run
    std::uint64_t diskHits = 0;   ///< replayed from the persistent store
    std::uint64_t misses = 0;     ///< simulated fresh
    std::uint64_t diskWrites = 0; ///< entries persisted
    std::uint64_t corrupt = 0;    ///< bad entries rejected (fresh fallback)
};

class RunService
{
  public:
    /** Pass-through service: no memoization, no disk store. */
    RunService() = default;

    /** Service with the persistent layer rooted at cacheDir (created on
     *  first write) and in-process memoization on. */
    explicit RunService(std::string cacheDir);

    RunService(const RunService &) = delete;
    RunService &operator=(const RunService &) = delete;

    /** Enable/disable the persistent layer; "" disables. */
    void setCacheDir(std::string dir);
    std::string cacheDir() const;

    /** Enable/disable in-process memoization. Disabling does not drop
     *  already-memoized outcomes mid-flight; it stops retaining new
     *  ones. Concurrent identical requests still coalesce whenever
     *  either layer is active. */
    void setMemoize(bool on);
    bool memoize() const;

    /**
     * Serve one simulation request. Exactly one of dedupHits, diskHits,
     * or misses is incremented per call. Exceptions from a fresh
     * simulation propagate to every coalesced waiter, and the failed
     * key is forgotten so a later request retries.
     */
    RunOutcome run(const Program &prog, const SimParams &params);

    /** Snapshot of the counters. */
    RunCacheStats stats() const;

    /** On-disk path an entry for this key would use (empty when the
     *  persistent layer is off). Exposed for tests and tooling. */
    std::string entryPath(const RunKey &key) const;

    /** The process-wide service behind run(prog, params).
     *  Constructed on first use as a pure pass-through: no
     *  memoization and no persistent layer until run_matrix turns
     *  them on (the store only from its --cache flag). No code reads
     *  a cache directory from the environment, so tests and tools
     *  that call run() directly always simulate. */
    static RunService &global();

  private:
    using OutcomePtr = std::shared_ptr<const RunOutcome>;

    /** Compute (or load) the outcome for key; called by the single
     *  owner of the in-flight entry. */
    OutcomePtr produce(const RunKey &key, const Program &prog,
                       const SimParams &params);

    bool tryLoad(const RunKey &key, RunOutcome &out);
    void store(const RunKey &key, const RunOutcome &out);

    mutable std::mutex mutex_;
    std::string dir_;
    bool memoize_ = false;
    RunCacheStats stats_;
    std::map<RunKey, std::shared_future<OutcomePtr>> inflight_;
    /** Corrupt-entry paths already warned about (rate limiting). */
    std::set<std::string> warnedCorrupt_;
};

/** Serialize a RunOutcome into the versioned, checksummed cache-entry
 *  format (magic + version + key echo + payload + trailing checksum).
 *  Exposed for the corruption tests. */
std::string encodeRunOutcome(const RunKey &key, const RunOutcome &out);

/** Strict inverse of encodeRunOutcome, by the same walk over a reader.
 *  Returns false (and leaves out untouched) when the reader latches —
 *  a short file or a count past the end — on trailing bytes, and on a
 *  bad magic, version, key or checksum. */
bool decodeRunOutcome(const std::string &bytes, const RunKey &key,
                      RunOutcome &out);

} // namespace wisc

#endif // WISC_HARNESS_RUN_CACHE_HH_
