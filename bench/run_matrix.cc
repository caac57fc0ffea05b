/**
 * @file
 * run_matrix: the whole evaluation in one process.
 *
 * Runs every figure/table/ablation experiment of the paper's matrix
 * back-to-back inside a single process, sharing one ParallelRunner pool
 * and one RunService. Because every experiment's simulations flow
 * through the same content-addressed run cache, the (Program,
 * SimParams) pairs the standalone binaries re-simulate over and over —
 * the normal-binary baseline alone is re-run by fig01/02/10/12/13,
 * table4/5, and every ablation — execute exactly once here, and with
 * `--cache DIR` a second invocation replays the entire matrix from
 * disk.
 *
 * Output: each experiment prints its paper-style table to stdout as
 * usual, and `--json PATH` writes one consolidated document with every
 * experiment's section plus per-experiment and whole-matrix wall times
 * and cache counters:
 *
 *   { "bench": "run_matrix", ..., "experiments": [ <per-bench docs> ],
 *     "experiment_wall_seconds": {name: t, ...},
 *     "cache_hits": H, "cache_misses": M, "dedup_hits": D }
 *
 * `--smoke` runs a reduced schedule as a ctest smoke target; `--only
 * a,b,c` selects experiments by name. `--shard I/N` keeps every Nth
 * experiment starting at the Ith: N processes started with the same
 * `--cache DIR` split the matrix between them, and the directory's
 * tmp-file + rename writes keep it consistent under that sharing.
 */

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/bench_cli.hh"
#include "harness/bench_registry.hh"

using namespace wisc;

namespace {

/** Every experiment, cheap structural checks first so a broken build
 *  fails fast. This is the schedule; the registry is the phone book. */
const char *const kMatrix[] = {
    "table3_binaries",
    "table4_benchmarks",
    "fig01_input_dependence",
    "fig02_overhead_breakdown",
    "fig02_attribution",
    "fig10_wish_jump_join",
    "fig11_wish_jump_stats",
    "fig12_wish_loops",
    "fig13_wish_loop_stats",
    "fig14_window_sweep",
    "fig15_depth_sweep",
    "fig16_select_uop",
    "table5_best_binary",
    "ablation_confidence",
    "ablation_estimators",
    "ablation_heuristics",
    "ablation_loop_bias",
    "predictor_sweep",
    "dynpred_sweep",
    "sampling_validation",
};

/** Reduced schedule for CI: exercises the registry, the shared pool,
 *  and cross-experiment dedup (fig13's runs coalesce with fig11's
 *  baseline and table4's wish runs) in a few seconds. */
const char *const kSmoke[] = {
    "table3_binaries",
    "fig11_wish_jump_stats",
    "fig13_wish_loop_stats",
    "predictor_sweep",
    "dynpred_sweep",
    "sampling_validation",
};

int
usage(int code)
{
    std::cout <<
        "usage: run_matrix [--smoke] [--only NAME[,NAME...]] [--list]\n"
        "                  [--json PATH] [--cache DIR | --no-cache]\n"
        "                  [--shard I/N]\n"
        "\n"
        "Runs the full figure/table/ablation matrix in one process with\n"
        "a shared simulation-result cache, so identical runs across\n"
        "experiments execute once.\n"
        "\n"
        "  --smoke       reduced schedule (ctest smoke target)\n"
        "  --only CSV    run only the named experiments, in matrix order\n"
        "  --list        print the schedule and exit\n"
        "  --json PATH   write one consolidated JSON document\n"
        "  --cache DIR   persistent run cache (WISC_CACHE_DIR fallback);\n"
        "                a second run replays the matrix from disk\n"
        "  --no-cache    ignore WISC_CACHE_DIR / compiled-in default\n"
        "  --shard I/N   run only every Nth experiment starting at the\n"
        "                Ith (1-based); N processes given the same\n"
        "                --cache DIR split the matrix between them\n";
    return code;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** Strict unsigned decimal: digits only (from_chars takes no sign or
 *  space for an unsigned type), no overflow, nothing after. */
bool
parseCount(const char *first, const char *last, unsigned &out)
{
    auto [end, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && end == last;
}

/** Parse "I/N" with 1 <= I <= N; anything else is rejected whole. */
bool
parseShard(const std::string &s, unsigned &index, unsigned &count)
{
    const std::size_t slash = s.find('/');
    if (slash == std::string::npos)
        return false;
    const char *p = s.data();
    return parseCount(p, p + slash, index) &&
           parseCount(p + slash + 1, p + s.size(), count) && index >= 1 &&
           index <= count;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::vector<std::string> only;
    unsigned shardIndex = 1, shardCount = 1;
    std::vector<char *> passArgv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--only") {
            if (i + 1 >= argc) {
                std::cerr << "run_matrix: --only requires names\n";
                return 2;
            }
            only = splitCsv(argv[++i]);
        } else if (a == "--shard") {
            if (i + 1 >= argc ||
                !parseShard(argv[i + 1], shardIndex, shardCount)) {
                std::cerr << "run_matrix: --shard wants I/N with "
                             "1 <= I <= N\n";
                return 2;
            }
            ++i;
        } else if (a == "--list") {
            for (const char *name : kMatrix)
                std::cout << name << "\n";
            return 0;
        } else if (a == "--help" || a == "-h") {
            return usage(0);
        } else {
            passArgv.push_back(argv[i]);
        }
    }

    // Experiments with an internal smoke reduction (predictor_sweep)
    // key off this; flags do not flow through the registry interface.
    if (smoke)
        setenv("WISC_SMOKE", "1", 1);

    // The top-level CLI owns the consolidated document, the matrix-wide
    // timer, and the cache configuration (--json/--cache/--no-cache).
    BenchCli cli(static_cast<int>(passArgv.size()), passArgv.data(),
                 "run_matrix");

    std::vector<std::string> schedule;
    if (!only.empty()) {
        for (const char *name : kMatrix)
            for (const std::string &o : only)
                if (o == name)
                    schedule.push_back(name);
        if (schedule.size() != only.size()) {
            std::cerr << "run_matrix: unknown experiment in --only "
                         "(see --list)\n";
            return 2;
        }
    } else if (smoke) {
        schedule.assign(std::begin(kSmoke), std::end(kSmoke));
    } else {
        schedule.assign(std::begin(kMatrix), std::end(kMatrix));
    }

    if (shardCount > 1) {
        std::vector<std::string> mine;
        for (std::size_t j = shardIndex - 1; j < schedule.size();
             j += shardCount)
            mine.push_back(schedule[j]);
        schedule = std::move(mine);
        std::cout << "shard " << shardIndex << "/" << shardCount << ": "
                  << schedule.size() << " experiments\n";
    }
    // A shard past the end of the schedule would run nothing and look
    // like success; a mistyped split must not pass silently.
    if (schedule.empty()) {
        std::cerr << "run_matrix: shard " << shardIndex << "/"
                  << shardCount << " has no experiments to run\n";
        return 2;
    }

    json::Value experiments = json::Value::array();
    json::Value wallByExperiment = json::Value::object();
    int firstFailure = 0;
    for (const std::string &name : schedule) {
        BenchFn fn = findBench(name);
        if (!fn)
            wisc_fatal("experiment '", name,
                       "' is not linked into run_matrix");

        BenchCli sub(name); // embedded: document only, no file
        int rc = fn(sub);
        if (rc != 0 && firstFailure == 0)
            firstFailure = rc;

        cli.noteSimulated(sub.simulatedUops(), sub.simulatedCycles());
        wallByExperiment[name] = sub.elapsedSeconds();
        experiments.push(sub.document());
        std::cout << "\n";
    }

    const RunCacheStats totals = RunService::global().stats();
    std::cout << "matrix: " << schedule.size() << " experiments, "
              << totals.misses << " simulations, " << totals.dedupHits
              << " dedup hits, " << totals.diskHits << " disk hits in "
              << Table::num(cli.elapsedSeconds(), 1) << "s\n";

    cli.add("experiment_count",
            json::Value(static_cast<std::uint64_t>(schedule.size())));
    cli.add("smoke", json::Value(smoke));
    cli.add("experiments", std::move(experiments));
    cli.add("experiment_wall_seconds", std::move(wallByExperiment));

    int rc = cli.finish();
    return firstFailure ? firstFailure : rc;
}
