#include "harness/bench_cli.hh"

#include <iostream>
#include <thread>

#include "common/log.hh"
#include "harness/json_writer.hh"
#include "harness/parallel_runner.hh"

namespace wisc {

BenchCli::BenchCli(std::string name, bool smoke)
    : name_(std::move(name)), smoke_(smoke),
      start_(std::chrono::steady_clock::now()),
      cacheStart_(RunService::global().stats())
{
    doc_["bench"] = name_;
    doc_["schema_version"] = 1u;
}

void
BenchCli::add(const std::string &key, json::Value v)
{
    doc_[key] = std::move(v);
}

void
BenchCli::addResults(const std::string &key, const NormalizedResults &r)
{
    doc_[key] = toJson(r);
}

void
BenchCli::addTable(const std::string &key, const Table &t)
{
    doc_[key] = toJson(t);
}

double
BenchCli::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
BenchCli::finalizeDoc()
{
    doc_["jobs"] = ParallelRunner::defaultJobs();
    doc_["wall_seconds"] = elapsedSeconds();

    // Cache counters as deltas over this CLI's lifetime: in a
    // many-experiment process each document reports its own traffic.
    const RunCacheStats now = RunService::global().stats();
    doc_["cache_hits"] = now.diskHits - cacheStart_.diskHits;
    doc_["cache_misses"] = now.misses - cacheStart_.misses;
    doc_["dedup_hits"] = now.dedupHits - cacheStart_.dedupHits;
    doc_["cache_corrupt"] = now.corrupt - cacheStart_.corrupt;
    const std::string dir = RunService::global().cacheDir();
    if (!dir.empty())
        doc_["cache_dir"] = dir;

    // What produced the numbers, so documents from another build type,
    // compiler, sanitizer or host size can be told apart.
    json::Value provenance = json::Value::object();
    provenance["build_type"] = WISC_BUILD_TYPE;
    provenance["compiler"] = WISC_COMPILER;
    provenance["sanitizer"] = *WISC_SANITIZER ? WISC_SANITIZER : "none";
    provenance["nproc"] = std::thread::hardware_concurrency();
    doc_["provenance"] = std::move(provenance);
}

int
BenchCli::finish(const std::string &jsonPath)
{
    finalizeDoc();
    if (jsonPath.empty())
        return 0;
    try {
        writeJsonFile(jsonPath, doc_);
    } catch (const FatalError &e) {
        std::cerr << name_ << ": " << e.what() << "\n";
        return 1;
    }
    std::cerr << name_ << ": wrote " << jsonPath << "\n";
    return 0;
}

} // namespace wisc
