#include "common/stats.hh"

#include <iomanip>

namespace wisc {

Counter &
StatSet::counter(const std::string &name, const std::string &desc)
{
    if (const char *kind = kindOf(name); kind && kind[0] != 'c')
        wisc_fatal("statistic '", name, "' is a ", kind,
                   "; cannot re-register it as a counter");
    auto &e = counters_[name];
    if (e.desc.empty())
        e.desc = desc;
    return e.counter;
}

Histogram &
StatSet::histogram(const std::string &name, std::size_t buckets,
                   const std::string &desc)
{
    if (buckets == 0)
        wisc_fatal("histogram '", name, "' registered with zero buckets");
    if (const char *kind = kindOf(name); kind && kind[0] != 'h')
        wisc_fatal("statistic '", name, "' is a ", kind,
                   "; cannot re-register it as a histogram");
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, HistEntry{desc, Histogram(buckets)})
                 .first;
    }
    return it->second.hist;
}

StatTable &
StatSet::table(const std::string &name, std::vector<std::string> columns,
               const std::string &desc)
{
    if (const char *kind = kindOf(name); kind && kind[0] != 't')
        wisc_fatal("statistic '", name, "' is a ", kind,
                   "; cannot re-register it as a table");
    auto it = tables_.find(name);
    if (it == tables_.end()) {
        it = tables_.emplace(name,
                             TableEntry{desc, StatTable(std::move(columns))})
                 .first;
    }
    return it->second.table;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.counter.value();
}

bool
StatSet::has(const std::string &name) const
{
    return counters_.count(name) != 0;
}

const char *
StatSet::kindOf(const std::string &name) const
{
    if (counters_.count(name))
        return "counter";
    if (histograms_.count(name))
        return "histogram";
    if (tables_.count(name))
        return "table";
    return nullptr;
}

namespace {

[[noreturn]] void
badLookup(const char *wanted, const std::string &name, const char *actual)
{
    if (actual)
        wisc_fatal("statistic '", name, "' is a ", actual, ", not a ",
                   wanted, "; read it with require<",
                   actual[0] == 'c'
                       ? "Counter"
                       : (actual[0] == 'h' ? "Histogram" : "StatTable"),
                   ">");
    wisc_fatal("unknown ", wanted, " '", name,
               "' (misspelled name, or the component that registers it "
               "never ran)");
}

} // namespace

template <> const Counter &
StatSet::require<Counter>(const std::string &name) const
{
    auto it = counters_.find(name);
    if (it == counters_.end())
        badLookup("counter", name, kindOf(name));
    return it->second.counter;
}

template <> const Histogram &
StatSet::require<Histogram>(const std::string &name) const
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        badLookup("histogram", name, kindOf(name));
    return it->second.hist;
}

template <> const StatTable &
StatSet::require<StatTable>(const std::string &name) const
{
    auto it = tables_.find(name);
    if (it == tables_.end())
        badLookup("table", name, kindOf(name));
    return it->second.table;
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &kv : counters_) {
        os << std::left << std::setw(44) << kv.first << " "
           << std::right << std::setw(14) << kv.second.counter.value();
        if (!kv.second.desc.empty())
            os << "  # " << kv.second.desc;
        os << "\n";
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second.hist;
        os << std::left << std::setw(44) << kv.first
           << " (histogram, n=" << h.count() << ")";
        if (!kv.second.desc.empty())
            os << "  # " << kv.second.desc;
        os << "\n";
        for (std::size_t i = 0; i < h.numBuckets(); ++i) {
            if (!h.bucket(i))
                continue;
            os << "  " << std::left << std::setw(42)
               << ((i + 1 == h.numBuckets())
                       ? ">=" + std::to_string(i)
                       : std::to_string(i))
               << " " << std::right << std::setw(14) << h.bucket(i)
               << "\n";
        }
    }
    for (const auto &kv : tables_) {
        const StatTable &t = kv.second.table;
        os << std::left << std::setw(44) << kv.first
           << " (table, rows=" << t.numRows() << ")";
        if (!kv.second.desc.empty())
            os << "  # " << kv.second.desc;
        os << "\n  " << std::left << std::setw(16) << "key";
        for (const auto &c : t.columns())
            os << " " << std::right << std::setw(12) << c;
        os << "\n";
        for (const auto &row : t.rows()) {
            os << "  " << std::left << std::setw(16) << row.first;
            for (std::uint64_t v : row.second)
                os << " " << std::right << std::setw(12) << v;
            os << "\n";
        }
    }
}

std::vector<std::string>
StatSet::counterNames() const
{
    std::vector<std::string> names;
    names.reserve(counters_.size());
    for (const auto &kv : counters_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
StatSet::histogramNames() const
{
    std::vector<std::string> names;
    names.reserve(histograms_.size());
    for (const auto &kv : histograms_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
StatSet::tableNames() const
{
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto &kv : tables_)
        names.push_back(kv.first);
    return names;
}

} // namespace wisc
