#include "harness/bench_cli.hh"

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/log.hh"
#include "harness/json_writer.hh"
#include "harness/parallel_runner.hh"

namespace wisc {

namespace {

/** One command-line flag: its spelling, argument placeholder (nullptr
 *  for plain switches), help text, and where the parsed value lands in
 *  the OutputSpec. The same table drives parsing and --help, so the
 *  two cannot disagree. */
struct FlagDesc
{
    const char *flag;
    const char *arg;  ///< placeholder name, or nullptr for a switch
    const char *help;
    std::string OutputSpec::*strField; ///< set for argument flags
    bool OutputSpec::*boolField;       ///< set for switches
};

constexpr FlagDesc kFlags[] = {
    {"--json", "PATH",
     "also write the results as JSON (WISC_RESULTS_JSON env\n"
     "variable is the fallback destination)",
     &OutputSpec::jsonPath, nullptr},
    {"--cache", "DIR",
     "persist simulation results in a content-addressed cache\n"
     "(WISC_CACHE_DIR env variable is the fallback)",
     &OutputSpec::cacheDir, nullptr},
    {"--no-cache", nullptr,
     "ignore WISC_CACHE_DIR and any compiled-in default", nullptr,
     &OutputSpec::noCache},
};

void
printUsage(const std::string &name)
{
    std::cout << "usage: " << name;
    for (const FlagDesc &f : kFlags) {
        std::cout << " [" << f.flag;
        if (f.arg)
            std::cout << ' ' << f.arg;
        std::cout << ']';
    }
    std::cout << "\n\n";
    for (const FlagDesc &f : kFlags) {
        std::string head = f.flag;
        if (f.arg)
            head += std::string(" ") + f.arg;
        std::cout << "  " << head;
        // Two-column layout: pad the head, indent continuation lines.
        const std::size_t col = 22;
        std::size_t used = 2 + head.size();
        if (used < col)
            std::cout << std::string(col - used, ' ');
        else
            std::cout << "\n" << std::string(col, ' ');
        for (const char *c = f.help; *c; ++c) {
            std::cout << *c;
            if (*c == '\n')
                std::cout << std::string(col, ' ');
        }
        std::cout << "\n";
    }
    std::cout << "\n  WISC_JOBS=N           worker threads for the "
                 "simulation sweep (default: all cores)\n";
}

/** Resolve the persistent-cache directory: flag > WISC_CACHE_DIR >
 *  compiled-in default ("" = persistent layer off). */
std::string
resolveCacheDir(const OutputSpec &spec)
{
    if (spec.noCache)
        return {};
    if (!spec.cacheDir.empty())
        return spec.cacheDir;
    if (const char *env = std::getenv("WISC_CACHE_DIR"))
        if (*env)
            return env;
#ifdef WISC_CACHE_DEFAULT_DIR
    return WISC_CACHE_DEFAULT_DIR;
#else
    return {};
#endif
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
        if (match->strField) {
            if (i + 1 >= argc) {
                std::cerr << name << ": " << match->flag << " requires "
                          << match->arg << "\n";
                std::exit(2);
            }
            spec.*(match->strField) = argv[++i];
        } else {
            spec.*(match->boolField) = true;
        }
    }
    if (spec.jsonPath.empty())
        if (const char *env = std::getenv("WISC_RESULTS_JSON"))
            spec.jsonPath = env;
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
    svc.setCacheDir(resolveCacheDir(spec_));
    cacheStart_ = svc.stats();

    doc_["bench"] = name_;
    doc_["schema_version"] = 1u;
}

BenchCli::BenchCli(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now())
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
