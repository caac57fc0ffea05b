#include "harness/bench_cli.hh"

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/log.hh"
#include "harness/json_writer.hh"
#include "harness/parallel_runner.hh"

namespace wisc {

namespace {

/** One command-line flag: its spelling, argument placeholder, help
 *  text, and where the parsed value lands in the OutputSpec. The same
 *  table drives parsing and --help, so the two cannot disagree. */
struct FlagDesc
{
    const char *flag;
    const char *arg;
    const char *help;
    std::string OutputSpec::*field;
};

constexpr FlagDesc kFlags[] = {
    {"--json", "PATH", "also write the results as JSON",
     &OutputSpec::jsonPath},
    {"--cache", "DIR",
     "persist simulation results in a content-addressed cache",
     &OutputSpec::cacheDir},
};

void
printUsage(const std::string &name)
{
    std::cout << "usage: " << name;
    for (const FlagDesc &f : kFlags)
        std::cout << " [" << f.flag << ' ' << f.arg << ']';
    std::cout << "\n\n";
    for (const FlagDesc &f : kFlags) {
        // Two-column layout: the help text starts at column 22.
        std::string head = std::string(f.flag) + ' ' + f.arg;
        head.resize(20, ' ');
        std::cout << "  " << head << f.help << "\n";
    }
    std::cout << "\n  WISC_JOBS=N           worker threads for the "
                 "simulation sweep (default: all cores)\n";
}

} // namespace

OutputSpec
OutputSpec::parse(int argc, char **argv, const std::string &name)
{
    OutputSpec spec;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printUsage(name);
            std::exit(0);
        }
        const FlagDesc *match = nullptr;
        for (const FlagDesc &f : kFlags)
            if (a == f.flag)
                match = &f;
        if (!match) {
            std::cerr << name << ": unknown option '" << a
                      << "' (try --help)\n";
            std::exit(2);
        }
        if (i + 1 >= argc) {
            std::cerr << name << ": " << match->flag << " requires "
                      << match->arg << "\n";
            std::exit(2);
        }
        spec.*(match->field) = argv[++i];
    }
    return spec;
}

BenchCli::BenchCli(int argc, char **argv, std::string name)
    : name_(std::move(name)), spec_(OutputSpec::parse(argc, argv, name_)),
      start_(std::chrono::steady_clock::now())
{
    // Opt this process into the run cache: dedup always, persistent
    // layer when a directory is configured.
    RunService &svc = RunService::global();
    svc.setMemoize(true);
    svc.setCacheDir(spec_.cacheDir);
    cacheStart_ = svc.stats();

    doc_["bench"] = name_;
    doc_["schema_version"] = 1u;
}

BenchCli::BenchCli(std::string name, bool smoke)
    : name_(std::move(name)), smoke_(smoke),
      start_(std::chrono::steady_clock::now())
{
    RunService &svc = RunService::global();
    svc.setMemoize(true);
    cacheStart_ = svc.stats();

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
    // Every serialized outcome counts toward the throughput figures, so
    // all normalized-experiment benches report uops_per_second.
    for (const RunOutcome &b : r.baseline)
        noteSimulated(b.result.retiredUops, b.result.cycles);
    for (const auto &row : r.outcomes)
        for (const RunOutcome &o : row)
            noteSimulated(o.result.retiredUops, o.result.cycles);
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
    const double wall = elapsedSeconds();
    doc_["wall_seconds"] = wall;
    if (simUops_ > 0) {
        doc_["simulated_uops"] = simUops_;
        doc_["simulated_cycles"] = simCycles_;
        if (wall > 0) {
            doc_["uops_per_second"] = static_cast<double>(simUops_) / wall;
            doc_["cycles_per_second"] =
                static_cast<double>(simCycles_) / wall;
        }
    }

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
}

int
BenchCli::finish()
{
    finalizeDoc();
    if (spec_.jsonPath.empty())
        return 0;
    try {
        writeJsonFile(spec_.jsonPath, doc_);
    } catch (const FatalError &e) {
        std::cerr << name_ << ": " << e.what() << "\n";
        return 1;
    }
    std::cerr << name_ << ": wrote " << spec_.jsonPath << "\n";
    return 0;
}

} // namespace wisc
