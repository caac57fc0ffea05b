/**
 * @file
 * Minimal statistics package in the spirit of gem5's Stats.
 *
 * Components register named counters/histograms/tables in a StatSet. The
 * harness reads them by name after a simulation run and the StatSet can
 * dump itself in a human-readable form. Counters are plain uint64 values;
 * formulas (ratios such as IPC) are computed by the reader.
 *
 * Readers have two lookup flavors: get() tolerates unknown names (for
 * statistics that are only registered when the event occurs, such as the
 * per-class wish-branch counters), while require<T>() treats an unknown
 * name — or a name registered as a different kind of statistic — as a
 * hard configuration error. Use it for statistics the simulator always
 * registers, so a misspelled name cannot silently read as zero.
 */

#ifndef WISC_COMMON_STATS_HH_
#define WISC_COMMON_STATS_HH_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hh"

namespace wisc {

/** A named event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

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
    std::uint64_t bucket(std::size_t i) const
    {
        return i < buckets_.size() ? buckets_[i] : 0;
    }
    std::size_t numBuckets() const { return buckets_.size(); }

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

  private:
    std::vector<std::string> columns_;
    std::map<std::uint64_t, std::vector<std::uint64_t>> rows_;
};

/**
 * Registry of named statistics. Names are hierarchical by convention
 * ("core.fetch.uops"). Registration returns a stable reference; the StatSet
 * must outlive all users. A name identifies exactly one statistic of
 * exactly one kind — registering or reading it as another kind is a hard
 * error, not a shadowed second entry.
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

    /** Value of a counter by name; 0 if never registered. */
    std::uint64_t get(const std::string &name) const;

    /** True iff a counter with this name exists. */
    bool has(const std::string &name) const;

    /**
     * Typed lookup: require<Counter>("core.cycles"),
     * require<Histogram>("core.fetch_width"),
     * require<StatTable>("core.branch_profile"). Hard error if the name
     * was never registered, or was registered as a different kind —
     * the error names the actual kind so a reader that asks for the
     * wrong one is told what it found, not just "unknown".
     */
    template <typename T>
    const T &require(const std::string &name) const;

    /** Dump all statistics, sorted by name. */
    void dump(std::ostream &os) const;

    /** All counter names (sorted), e.g. for introspection in tests. */
    std::vector<std::string> counterNames() const;

    /** All histogram names (sorted). */
    std::vector<std::string> histogramNames() const;

    /** All table names (sorted). */
    std::vector<std::string> tableNames() const;

  private:
    struct Entry
    {
        std::string desc;
        Counter counter;
    };

    struct HistEntry
    {
        std::string desc;
        Histogram hist;
    };

    struct TableEntry
    {
        std::string desc;
        StatTable table;
    };

    /** The kind a name is registered under, for mismatch diagnostics;
     *  nullptr if the name is unknown. */
    const char *kindOf(const std::string &name) const;

    std::map<std::string, Entry> counters_;
    std::map<std::string, HistEntry> histograms_;
    std::map<std::string, TableEntry> tables_;
};

template <> const Counter &
StatSet::require<Counter>(const std::string &name) const;
template <> const Histogram &
StatSet::require<Histogram>(const std::string &name) const;
template <> const StatTable &
StatSet::require<StatTable>(const std::string &name) const;

} // namespace wisc

#endif // WISC_COMMON_STATS_HH_
