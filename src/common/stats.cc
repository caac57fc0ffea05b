#include "common/stats.hh"

#include <iomanip>
#include <string_view>

namespace wisc {

namespace {

/** "counter", "histogram" or "table": the kind `name` is registered as
 *  in `r`; nullptr if the name is unknown. */
const char *
kindOf(const StatRecord &r, const std::string &name)
{
    if (r.stats.count(name))
        return "counter";
    if (r.hists.count(name))
        return "histogram";
    if (r.tables.count(name))
        return "table";
    return nullptr;
}

/** The `wanted` statistic `name` in `m`; a hard error naming what the
 *  record holds under that name instead, if anything. */
template <typename T>
const T &
lookup(const StatRecord &r, const std::map<std::string, T> &m,
       const char *wanted, const std::string &name)
{
    auto it = m.find(name);
    if (it != m.end())
        return it->second;
    if (const char *actual = kindOf(r, name))
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
StatRecord::require<Counter>(const std::string &name) const
{
    return lookup(*this, stats, "counter", name);
}

template <> const Histogram &
StatRecord::require<Histogram>(const std::string &name) const
{
    return lookup(*this, hists, "histogram", name);
}

template <> const StatTable &
StatRecord::require<StatTable>(const std::string &name) const
{
    return lookup(*this, tables, "table", name);
}

std::uint64_t
StatRecord::require(const std::string &name) const
{
    return require<Counter>(name);
}

void
StatSet::claim(const std::string &name, const char *kind,
               const std::string &desc)
{
    if (const char *had = kindOf(record_, name);
        had && std::string_view(had) != kind)
        wisc_fatal("statistic '", name, "' is a ", had,
                   "; cannot re-register it as a ", kind);
    if (!desc.empty())
        desc_.try_emplace(name, desc);
}

Counter &
StatSet::counter(const std::string &name, const std::string &desc)
{
    claim(name, "counter", desc);
    return record_.stats[name];
}

Histogram &
StatSet::histogram(const std::string &name, std::size_t buckets,
                   const std::string &desc)
{
    if (buckets == 0)
        wisc_fatal("histogram '", name, "' registered with zero buckets");
    claim(name, "histogram", desc);
    auto it = record_.hists.find(name);
    if (it == record_.hists.end())
        it = record_.hists.emplace(name, Histogram(buckets)).first;
    return it->second;
}

StatTable &
StatSet::table(const std::string &name, std::vector<std::string> columns,
               const std::string &desc)
{
    claim(name, "table", desc);
    auto it = record_.tables.find(name);
    if (it == record_.tables.end())
        it = record_.tables.emplace(name, StatTable(std::move(columns)))
                 .first;
    return it->second;
}

void
StatSet::dump(std::ostream &os) const
{
    auto describe = [&](const std::string &name) {
        auto it = desc_.find(name);
        if (it != desc_.end())
            os << "  # " << it->second;
    };
    for (const auto &[name, value] : record_.stats) {
        os << std::left << std::setw(44) << name << " " << std::right
           << std::setw(14) << value;
        describe(name);
        os << "\n";
    }
    for (const auto &[name, h] : record_.hists) {
        os << std::left << std::setw(44) << name
           << " (histogram, n=" << h.count() << ")";
        describe(name);
        os << "\n";
        const std::vector<std::uint64_t> &b = h.buckets();
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (!b[i])
                continue;
            os << "  " << std::left << std::setw(42)
               << ((i + 1 == b.size()) ? ">=" + std::to_string(i)
                                       : std::to_string(i))
               << " " << std::right << std::setw(14) << b[i] << "\n";
        }
    }
    for (const auto &[name, t] : record_.tables) {
        os << std::left << std::setw(44) << name
           << " (table, rows=" << t.numRows() << ")";
        describe(name);
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
    names.reserve(record_.stats.size());
    for (const auto &kv : record_.stats)
        names.push_back(kv.first);
    return names;
}

} // namespace wisc
