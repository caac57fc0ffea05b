/**
 * @file
 * run_matrix: the one way to run an experiment.
 *
 * Every figure/table/ablation experiment is one bench/<name>.cc that
 * defines `int name(BenchCli &)`, and this program is the only binary
 * that links them. It runs the selected experiments back-to-back
 * inside a single process, sharing one ParallelRunner pool and one
 * RunService. Because every experiment's simulations flow through the
 * same content-addressed run cache, the (Program, SimParams) pairs
 * that several experiments need — the normal-binary baseline alone is
 * run by fig01/02/10/12/13, table4/5, and every ablation — execute
 * exactly once, and with `--cache DIR` a second invocation replays the
 * entire matrix from disk. It is the only program that turns the run
 * cache on, and the only one that takes `--cache`; every other caller
 * of run() simulates each request.
 *
 * Output: each experiment prints its paper-style table to stdout,
 * followed by a blank line, and the run ends with one `matrix:` line
 * of totals. `--json PATH` writes one consolidated document with every
 * experiment's own document plus per-experiment and whole-matrix wall
 * times and cache counters:
 *
 *   { "bench": "run_matrix", ..., "experiments": [ <per-bench docs> ],
 *     "experiment_wall_seconds": {name: t, ...},
 *     "cache_hits": H, "cache_misses": M, "dedup_hits": D }
 *
 * `--only a,b,c` selects experiments by name (`--only NAME` is the
 * single-experiment command). `--smoke` runs the reduced schedule and
 * hands each experiment a smoke bit (BenchCli::smoke()), which
 * predictor_sweep, dynpred_sweep and sampling_validation use to shrink
 * themselves. `--shard I/N` keeps every Nth experiment starting at the
 * Ith: N processes started with the same `--cache DIR` split the
 * matrix between them, and the directory's tmp-file + rename writes
 * keep it consistent under that sharing.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hh"
#include "harness/bench_cli.hh"

using namespace wisc;

/** Every experiment in schedule order, cheap structural checks first
 *  so a broken build fails fast; the second column puts it in the
 *  reduced --smoke schedule. The smoke rows exercise the shared pool
 *  and cross-experiment dedup (fig13's runs coalesce with fig11's
 *  baseline) and every smoke-aware experiment, in a few seconds. */
#define WISC_EXPERIMENTS(X)                                                \
    X(table3_binaries, true)                                               \
    X(table4_benchmarks, false)                                            \
    X(fig01_input_dependence, false)                                       \
    X(fig02_overhead_breakdown, false)                                     \
    X(fig02_attribution, false)                                            \
    X(fig10_wish_jump_join, false)                                         \
    X(fig11_wish_jump_stats, true)                                         \
    X(fig12_wish_loops, false)                                             \
    X(fig13_wish_loop_stats, true)                                         \
    X(fig14_window_sweep, false)                                           \
    X(fig15_depth_sweep, false)                                            \
    X(fig16_select_uop, false)                                             \
    X(table5_best_binary, false)                                           \
    X(ablation_confidence, false)                                          \
    X(ablation_estimators, false)                                          \
    X(ablation_heuristics, false)                                          \
    X(ablation_loop_bias, false)                                           \
    X(predictor_sweep, true)                                               \
    X(dynpred_sweep, true)                                                 \
    X(sampling_validation, true)

// Each experiment TU defines its entry point; one left out of the
// build fails the link.
#define X(name, inSmoke) int name(BenchCli &cli);
WISC_EXPERIMENTS(X)
#undef X

namespace {

struct Experiment
{
    const char *name;
    int (*run)(BenchCli &);
    bool inSmoke;
};

const Experiment kExperiments[] = {
#define X(name, inSmoke) {#name, &name, inSmoke},
    WISC_EXPERIMENTS(X)
#undef X
};

int
usage(int code)
{
    std::cout <<
        "usage: run_matrix [--smoke] [--only NAME[,NAME...]] [--list]\n"
        "                  [--json PATH] [--cache DIR] [--shard I/N]\n"
        "\n"
        "Runs the figure/table/ablation experiments in one process with\n"
        "a shared simulation-result cache, so identical runs across\n"
        "experiments execute once.\n"
        "\n"
        "  --smoke       reduced schedule, and reduced experiments\n"
        "                (ctest smoke target)\n"
        "  --only CSV    run only the named experiments, each named\n"
        "                once, in matrix order\n"
        "  --list        print the schedule and exit\n"
        "  --json PATH   write one consolidated JSON document\n"
        "  --cache DIR   persistent run cache; a second run replays the\n"
        "                matrix from disk\n"
        "  --shard I/N   run only every Nth experiment starting at the\n"
        "                Ith (1-based); N processes given the same\n"
        "                --cache DIR split the matrix between them\n"
        "\n"
        "  WISC_JOBS=N   worker threads for the simulation sweep\n"
        "                (default: all cores)\n";
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

/** An --only list names each experiment at most once, and only ones
 *  in the matrix; prints why it does not and returns false. */
bool
checkOnly(const std::vector<std::string> &only)
{
    if (only.empty()) {
        std::cerr << "run_matrix: --only needs at least one experiment "
                     "name (see --list)\n";
        return false;
    }
    for (auto it = only.begin(); it != only.end(); ++it) {
        if (std::none_of(std::begin(kExperiments), std::end(kExperiments),
                         [&](const Experiment &e) { return *it == e.name; })) {
            std::cerr << "run_matrix: unknown experiment '" << *it
                      << "' in --only (see --list)\n";
            return false;
        }
        if (std::find(only.begin(), it, *it) != it) {
            std::cerr << "run_matrix: experiment '" << *it
                      << "' named twice in --only\n";
            return false;
        }
    }
    return true;
}

/** Parse "I/N" with 1 <= I <= N; anything else is rejected whole. */
bool
parseShard(std::string_view s, unsigned &index, unsigned &count)
{
    const std::size_t slash = s.find('/');
    if (slash == std::string_view::npos)
        return false;
    return parseCount(s.substr(0, slash), index) &&
           parseCount(s.substr(slash + 1), count) && index >= 1 &&
           index <= count;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::vector<std::string> only;
    unsigned shardIndex = 1, shardCount = 1;
    std::string jsonPath, cacheDir;
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
            if (!checkOnly(only))
                return 2;
        } else if (a == "--shard") {
            if (i + 1 >= argc ||
                !parseShard(argv[i + 1], shardIndex, shardCount)) {
                std::cerr << "run_matrix: --shard wants I/N with "
                             "1 <= I <= N\n";
                return 2;
            }
            ++i;
        } else if (a == "--json" || a == "--cache") {
            if (i + 1 >= argc) {
                std::cerr << "run_matrix: " << a << " requires "
                          << (a == "--json" ? "PATH" : "DIR") << "\n";
                return 2;
            }
            (a == "--json" ? jsonPath : cacheDir) = argv[++i];
        } else if (a == "--list") {
            for (const Experiment &e : kExperiments)
                std::cout << e.name << "\n";
            return 0;
        } else if (a == "--help" || a == "-h") {
            return usage(0);
        } else {
            std::cerr << "run_matrix: unknown option '" << a
                      << "' (try --help)\n";
            return 2;
        }
    }

    // The only program that turns the run cache on: in-process dedup
    // always, the persistent layer when --cache names a directory.
    RunService &svc = RunService::global();
    svc.setMemoize(true);
    svc.setCacheDir(cacheDir);

    // The consolidated document and the matrix-wide timer.
    BenchCli cli("run_matrix");

    std::vector<const Experiment *> schedule;
    for (const Experiment &e : kExperiments) {
        const bool wanted =
            only.empty() ? !smoke || e.inSmoke
                         : std::find(only.begin(), only.end(), e.name) !=
                               only.end();
        if (wanted)
            schedule.push_back(&e);
    }

    if (shardCount > 1) {
        std::vector<const Experiment *> mine;
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
    for (const Experiment *e : schedule) {
        BenchCli sub(e->name, smoke); // embedded: document only, no file
        int rc = e->run(sub);
        if (rc != 0 && firstFailure == 0)
            firstFailure = rc;

        wallByExperiment[e->name] = sub.elapsedSeconds();
        experiments.push(sub.document());
        std::cout << "\n";
    }

    const RunCacheStats totals = svc.stats();
    std::cout << "matrix: " << schedule.size() << " experiments, "
              << totals.misses << " simulations, " << totals.dedupHits
              << " dedup hits, " << totals.diskHits << " disk hits in "
              << Table::num(cli.elapsedSeconds(), 1) << "s\n";

    cli.add("experiment_count",
            json::Value(static_cast<std::uint64_t>(schedule.size())));
    cli.add("smoke", json::Value(smoke));
    cli.add("experiments", std::move(experiments));
    cli.add("experiment_wall_seconds", std::move(wallByExperiment));

    int rc = cli.finish(jsonPath);
    return firstFailure ? firstFailure : rc;
}
