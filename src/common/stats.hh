/**
 * @file
 * Minimal statistics package in the spirit of gem5's Stats.
 *
 * Each kind of statistic has one value type: a counter is the
 * std::uint64_t it counts, a Histogram its buckets, a StatTable its
 * rows. A StatRecord holds every statistic of one run by name, one map
 * per kind. Components register theirs in a StatSet, which fills its
 * record while the core runs and can dump it in a human-readable form;
 * a run's RunOutcome (harness/runner.hh) keeps a copy of the record.
 * Formulas (ratios such as IPC) are computed by the reader.
 *
 * Readers have two lookup flavors: stat() (a StatSet's get()) tolerates
 * unknown names (for statistics that are only registered when the event
 * occurs, such as the per-class wish-branch counters), while
 * require<T>() treats an unknown name — or a name registered as a
 * different kind of statistic — as a hard configuration error. Use it
 * for statistics the simulator always registers, so a misspelled name
 * cannot silently read as zero.
 */

#ifndef WISC_COMMON_STATS_HH_
#define WISC_COMMON_STATS_HH_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/log.hh"

namespace wisc {

/** A named event counter: the count itself. */
using Counter = std::uint64_t;

/**
 * A bounded histogram with an overflow bucket.
 *
 * Geometry is fixed at construction: `buckets` regular buckets for the
 * values 0..buckets-1 plus one overflow bucket. Constructing with zero
 * buckets is a hard error — a zero-bucket histogram would collapse every
 * sample into the overflow bucket and read as plausible-but-meaningless
 * data. The default constructor exists only so Histogram can live in
 * containers; sampling an unconfigured histogram panics.
 */
class Histogram
{
  public:
    /** An unconfigured histogram; sample() panics until it is replaced
     *  by one with real geometry. */
    Histogram() = default;

    explicit Histogram(std::size_t buckets) : buckets_(buckets + 1)
    {
        if (buckets == 0)
            wisc_fatal("histogram constructed with zero buckets; "
                       "give it explicit geometry");
    }

    /** Record one sample; samples >= bucket count land in the last bucket. */
    void
    sample(std::size_t v)
    {
        wisc_assert(!buckets_.empty(),
                    "sample() on an unconfigured histogram");
        if (v >= buckets_.size())
            v = buckets_.size() - 1;
        ++buckets_[v];
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    /** Bucket i counts value i; the last bucket is the overflow. */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Walk the value (run-cache entries): the count, then the
     *  buckets. */
    void
    io(StateIO &io)
    {
        io(count_);
        io.seq(buckets_, [&](std::uint64_t &b) { io(b); });
    }

    bool operator==(const Histogram &) const = default;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

/**
 * A keyed table of uint64 columns — one row per key, column layout fixed
 * at registration. The per-static-branch profile is the canonical use:
 * key = branch PC, columns = dynamic count / mispredicts / confidence
 * outcomes / flush cycles. Rows materialize on first touch, zero-filled.
 *
 * The default constructor exists only so StatTable can live in
 * containers; touching a row of an unconfigured table panics.
 */
class StatTable
{
  public:
    StatTable() = default;

    explicit StatTable(std::vector<std::string> columns)
        : columns_(std::move(columns))
    {
        if (columns_.empty())
            wisc_fatal("stat table constructed with zero columns");
    }

    /** The row for `key`, created zero-filled on first access. */
    std::vector<std::uint64_t> &
    row(std::uint64_t key)
    {
        wisc_assert(!columns_.empty(), "row() on an unconfigured table");
        auto it = rows_.find(key);
        if (it == rows_.end())
            it = rows_.emplace(key,
                               std::vector<std::uint64_t>(columns_.size()))
                     .first;
        return it->second;
    }

    const std::vector<std::string> &columns() const { return columns_; }
    const std::map<std::uint64_t, std::vector<std::uint64_t>> &
    rows() const { return rows_; }
    std::size_t numRows() const { return rows_.size(); }

    /** Walk the value (run-cache entries): the column names, then each
     *  row as its key and one u64 per column, with no count of its
     *  own. */
    void
    io(StateIO &io)
    {
        io.seq(columns_, [&](std::string &c) { io.str(c); });
        io.map(rows_, [&](std::uint64_t &key,
                          std::vector<std::uint64_t> &row) {
            io(key);
            if (io.loading())
                row.resize(columns_.size());
            for (std::uint64_t &v : row)
                io(v);
        });
    }

    bool operator==(const StatTable &) const = default;

  private:
    std::vector<std::string> columns_;
    std::map<std::uint64_t, std::vector<std::uint64_t>> rows_;
};

/**
 * Every statistic of one run, by name, one map per kind. Names are
 * hierarchical by convention ("core.fetch.uops"), and a name identifies
 * exactly one statistic of exactly one kind.
 */
struct StatRecord
{
    std::map<std::string, Counter> stats; ///< the counters
    std::map<std::string, Histogram> hists;
    std::map<std::string, StatTable> tables;

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

    /**
     * Typed lookup: require<Counter>("core.cycles"),
     * require<Histogram>("core.fetch_width"),
     * require<StatTable>("core.branch_profile"). Hard error
     * (FatalError) if the name was never registered, or was registered
     * as a different kind — the error names the actual kind so a reader
     * that asks for the wrong one is told what it found, not just
     * "unknown".
     */
    template <typename T>
    const T &require(const std::string &name) const;

    /** A counter's value: require<Counter>(name). */
    std::uint64_t require(const std::string &name) const;
};

template <> const Counter &
StatRecord::require<Counter>(const std::string &name) const;
template <> const Histogram &
StatRecord::require<Histogram>(const std::string &name) const;
template <> const StatTable &
StatRecord::require<StatTable>(const std::string &name) const;

/**
 * Registry of named statistics. Registration returns a stable reference
 * into the record; the StatSet must outlive all users. Registering a
 * name as another kind than it already has is a hard error, not a
 * shadowed second entry.
 */
class StatSet
{
  public:
    StatSet() = default;
    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    /** Register (or look up) a counter with a description. */
    Counter &counter(const std::string &name, const std::string &desc = "");

    /** Register (or look up) a histogram. buckets must be nonzero. */
    Histogram &histogram(const std::string &name, std::size_t buckets,
                         const std::string &desc = "");

    /** Register (or look up) a keyed table with the given column names. */
    StatTable &table(const std::string &name,
                     std::vector<std::string> columns,
                     const std::string &desc = "");

    /** Every statistic registered so far, with its current value. */
    const StatRecord &record() const { return record_; }

    /** Value of a counter by name; 0 if never registered. */
    std::uint64_t
    get(const std::string &name) const
    {
        return record_.stat(name);
    }

    /** Dump all statistics, sorted by name. */
    void dump(std::ostream &os) const;

    /** All counter names (sorted), e.g. for introspection in tests. */
    std::vector<std::string> counterNames() const;

  private:
    /** Hard error unless `name` is unknown or already a `kind`; keep
     *  the first non-empty description. */
    void claim(const std::string &name, const char *kind,
               const std::string &desc);

    StatRecord record_;
    std::map<std::string, std::string> desc_; ///< read only by dump()
};

} // namespace wisc

#endif // WISC_COMMON_STATS_HH_
