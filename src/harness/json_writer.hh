/**
 * @file
 * JSON serialization of harness results — the emission layer behind the
 * bench binaries' `--json` flag and the repo's BENCH_*.json trajectory
 * files.
 *
 * Schema (schema_version 1):
 *
 *   RunOutcome   -> { "halted": bool, "cycles": u64,
 *                     "retired_uops": u64, "ipc": double,
 *                     "result_reg": u64, "mem_fingerprint": u64,
 *                     "counters": { name: u64, ... },
 *                     "histograms": { name: { "count": u64,
 *                                             "buckets": [u64...] } },
 *                     "tables": { name: { "columns": [str...],
 *                                         "rows": [ { "key": u64,
 *                                            "values": [u64...] }...] } } }
 *
 * The "tables" member appears only when the run produced at least one
 * StatTable (e.g. --branch-profile), so older documents are unaffected.
 *
 *   NormalizedResults
 *                -> { "benchmarks": [...], "series": [...],
 *                     "rel_time": [[double...]...],
 *                     "avg": [...], "avg_nomcf": [...],
 *                     "runs": [ { "benchmark": name,
 *                                 "baseline": RunOutcome,
 *                                 "series": [RunOutcome...] } ] }
 *
 *   Table        -> { "headers": [...], "rows": [[...]...] }
 *
 * Counters and histogram buckets are emitted as JSON integers (never
 * doubles), so a round-trip through the parser reproduces them exactly.
 */

#ifndef WISC_HARNESS_JSON_WRITER_HH_
#define WISC_HARNESS_JSON_WRITER_HH_

#include <string>

#include "common/json.hh"
#include "harness/experiments.hh"
#include "harness/table.hh"

namespace wisc {

json::Value toJson(const RunOutcome &r);
json::Value toJson(const NormalizedResults &r);
json::Value toJson(const Table &t);

/** Write a document to a file; FatalError if the file can't be written. */
void writeJsonFile(const std::string &path, const json::Value &doc);

} // namespace wisc

#endif // WISC_HARNESS_JSON_WRITER_HH_
