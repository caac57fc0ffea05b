#include "harness/json_writer.hh"

#include <fstream>

#include "common/log.hh"

namespace wisc {

json::Value
toJson(const RunOutcome &r)
{
    json::Value v = json::Value::object();
    v["halted"] = r.result.halted;
    v["cycles"] = static_cast<std::uint64_t>(r.result.cycles);
    v["retired_uops"] = r.result.retiredUops;
    v["ipc"] = r.result.ipc();
    v["result_reg"] = static_cast<std::uint64_t>(r.result.resultReg);
    v["mem_fingerprint"] = r.result.memFingerprint;

    json::Value counters = json::Value::object();
    for (const auto &kv : r.stats)
        counters[kv.first] = kv.second;
    v["counters"] = std::move(counters);

    json::Value hists = json::Value::object();
    for (const auto &kv : r.hists) {
        json::Value h = json::Value::object();
        h["count"] = kv.second.count();
        json::Value buckets = json::Value::array();
        for (std::uint64_t b : kv.second.buckets())
            buckets.push(b);
        h["buckets"] = std::move(buckets);
        hists[kv.first] = std::move(h);
    }
    v["histograms"] = std::move(hists);

    // Stat tables (e.g. core.branch_profile) ride along only when the
    // run produced any, so documents from table-free runs are unchanged.
    if (!r.tables.empty()) {
        json::Value tables = json::Value::object();
        for (const auto &kv : r.tables) {
            json::Value t = json::Value::object();
            json::Value cols = json::Value::array();
            for (const std::string &c : kv.second.columns())
                cols.push(c);
            t["columns"] = std::move(cols);
            json::Value rows = json::Value::array();
            for (const auto &row : kv.second.rows()) {
                json::Value jr = json::Value::object();
                jr["key"] = row.first;
                json::Value vals = json::Value::array();
                for (std::uint64_t x : row.second)
                    vals.push(x);
                jr["values"] = std::move(vals);
                rows.push(std::move(jr));
            }
            t["rows"] = std::move(rows);
            tables[kv.first] = std::move(t);
        }
        v["tables"] = std::move(tables);
    }
    return v;
}

json::Value
toJson(const NormalizedResults &r)
{
    json::Value v = json::Value::object();

    json::Value benchmarks = json::Value::array();
    for (const auto &b : r.benchmarks)
        benchmarks.push(b);
    v["benchmarks"] = std::move(benchmarks);

    json::Value series = json::Value::array();
    for (const auto &s : r.seriesLabels)
        series.push(s);
    v["series"] = std::move(series);

    json::Value rel = json::Value::array();
    for (const auto &row : r.relTime) {
        json::Value jrow = json::Value::array();
        for (double x : row)
            jrow.push(x);
        rel.push(std::move(jrow));
    }
    v["rel_time"] = std::move(rel);

    json::Value avg = json::Value::array();
    for (double x : r.avg)
        avg.push(x);
    v["avg"] = std::move(avg);

    json::Value avgn = json::Value::array();
    for (double x : r.avgNoMcf)
        avgn.push(x);
    v["avg_nomcf"] = std::move(avgn);

    // Raw per-run data, when the experiment captured it.
    json::Value runs = json::Value::array();
    for (std::size_t b = 0; b < r.baseline.size(); ++b) {
        json::Value entry = json::Value::object();
        entry["benchmark"] =
            b < r.benchmarks.size() ? r.benchmarks[b] : std::string();
        entry["baseline"] = toJson(r.baseline[b]);
        json::Value cells = json::Value::array();
        if (b < r.outcomes.size())
            for (const RunOutcome &o : r.outcomes[b])
                cells.push(toJson(o));
        entry["series"] = std::move(cells);
        runs.push(std::move(entry));
    }
    v["runs"] = std::move(runs);
    return v;
}

json::Value
toJson(const Table &t)
{
    json::Value v = json::Value::object();
    json::Value headers = json::Value::array();
    for (const auto &h : t.headers())
        headers.push(h);
    v["headers"] = std::move(headers);
    json::Value rows = json::Value::array();
    for (const auto &row : t.rows()) {
        json::Value jrow = json::Value::array();
        for (const auto &cell : row)
            jrow.push(cell);
        rows.push(std::move(jrow));
    }
    v["rows"] = std::move(rows);
    return v;
}

void
writeJsonFile(const std::string &path, const json::Value &doc)
{
    std::ofstream out(path);
    if (!out)
        wisc_fatal("cannot open '", path, "' for writing");
    doc.write(out, 2);
    out << "\n";
    if (!out)
        wisc_fatal("write to '", path, "' failed");
}

} // namespace wisc
