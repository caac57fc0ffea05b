/**
 * @file
 * Differential fuzzing CLI. Generates seeded random programs, compiles
 * all five Table-3 binary variants, and cross-checks the functional
 * emulator against itself (full architectural state across variants)
 * and the cycle-accurate core against the emulator over a SimParams
 * matrix, including the attribution-sum and poll-vs-event-scheduler
 * invariants. Failures are shrunk and written as self-contained
 * reproducer files.
 *
 * Usage:
 *   wisc_fuzz [--seed N] [--runs N] [--matrix smoke|full] [--stress]
 *             [--emu-only] [--no-shrink] [--repro-dir DIR]
 *             [--replay FILE] [--json PATH]
 *
 * --replay FILE re-checks a reproducer written by an earlier campaign
 * (or checked in under tests/fuzz_regressions/): exit 0 when the tree
 * no longer exhibits the failure, 2 when it still reproduces.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/parse.hh"
#include "fuzz/fuzzer.hh"
#include "harness/bench_cli.hh"
#include "harness/table.hh"

using namespace wisc;

namespace {

int
usage(std::ostream &os, const char *argv0, int code)
{
    os << "usage: " << argv0
       << " [--seed N] [--runs N] [--matrix smoke|full]"
          " [--stress] [--emu-only] [--no-shrink]"
          " [--repro-dir DIR] [--replay FILE] [--json PATH]\n";
    return code;
}

int
badCount(const char *argv0, const std::string &flag, const char *value)
{
    std::cerr << flag << " wants a decimal count, got '" << value
              << "'\n";
    return usage(std::cerr, argv0, 2);
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opts;
    std::string replayPath;
    std::string matrixName = "smoke";
    std::string jsonPath;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--seed") {
            if (!parseCount(value("--seed"), opts.seed))
                return badCount(argv[0], a, argv[i]);
        } else if (a == "--runs") {
            if (!parseCount(value("--runs"), opts.runs))
                return badCount(argv[0], a, argv[i]);
        } else if (a == "--matrix")
            matrixName = value("--matrix");
        else if (a == "--emu-only")
            opts.runCore = false;
        else if (a == "--stress") {
            // Harsher shapes: deeper nesting, more regions (close to —
            // and past — the fresh-guard pool), more loops straddling
            // the wish-loop body limit.
            opts.gen.hammockBudget = 8;
            opts.gen.loopBudget = 5;
            opts.gen.stmtsPerBody = 8;
            opts.gen.bigLoopBodyChance = 0.4;
            opts.gen.emptyArmChance = 0.3;
        }
        else if (a == "--no-shrink")
            opts.shrink = false;
        else if (a == "--repro-dir")
            opts.reproDir = value("--repro-dir");
        else if (a == "--replay")
            replayPath = value("--replay");
        else if (a == "--json")
            jsonPath = value("--json");
        else if (a == "--help" || a == "-h")
            return usage(std::cout, argv[0], 0);
        else {
            std::cerr << "wisc_fuzz: unknown option '" << a << "'\n";
            return usage(std::cerr, argv[0], 2);
        }
    }
    if (matrixName == "smoke")
        opts.matrix = defaultParamsMatrix(true);
    else if (matrixName == "full")
        opts.matrix = defaultParamsMatrix(false);
    else {
        std::cerr << "--matrix must be 'smoke' or 'full', got '"
                  << matrixName << "'\n";
        return 2;
    }

    BenchCli cli("wisc_fuzz");

    if (!replayPath.empty()) {
        std::ifstream in(replayPath);
        if (!in) {
            std::cerr << "wisc_fuzz: cannot open " << replayPath << "\n";
            return 2;
        }
        std::ostringstream body;
        body << in.rdbuf();
        CheckOutcome c = replayReproducer(body.str(), opts);
        cli.add("replay_file", replayPath);
        cli.add("replay_ok", c.ok);
        if (c.ok) {
            std::cout << "wisc_fuzz: " << replayPath
                      << (c.compileReject
                              ? ": compile-rejected (fresh-guard pool)"
                              : ": no longer reproduces")
                      << "\n";
            cli.finish(jsonPath);
            return 0;
        }
        std::cout << "wisc_fuzz: " << replayPath
                  << " still fails [" << c.kind << "] " << c.detail
                  << "\n";
        cli.add("replay_kind", c.kind);
        cli.add("replay_detail", c.detail);
        cli.finish(jsonPath);
        return 2;
    }

    printBanner(std::cout, "Differential fuzzer",
                detail::format("seed ", opts.seed, ", ", opts.runs,
                               " programs, ", matrixName, " matrix (",
                               opts.matrix.size(), " machine points)",
                               opts.runCore ? "" : ", emulator only"));

    FuzzReport rep = fuzzCampaign(opts, &std::cout);

    Table t({"metric", "value"});
    t.addRow({"programs", std::to_string(rep.programs)});
    t.addRow({"variant emulations", std::to_string(rep.variantsChecked)});
    t.addRow({"core simulations", std::to_string(rep.coreRuns)});
    t.addRow({"compile rejects", std::to_string(rep.compileRejects)});
    t.addRow({"failures", std::to_string(rep.failures.size())});
    t.print(std::cout);

    cli.add("seed", opts.seed);
    cli.add("runs", opts.runs);
    cli.add("matrix", matrixName);
    cli.add("programs", rep.programs);
    cli.add("variants_checked", rep.variantsChecked);
    cli.add("core_runs", rep.coreRuns);
    cli.add("compile_rejects", rep.compileRejects);
    cli.add("failure_count",
            static_cast<std::uint64_t>(rep.failures.size()));
    {
        json::Value arr = json::Value::array();
        for (const FuzzFailure &f : rep.failures) {
            json::Value o = json::Value::object();
            o["seed"] = f.seed;
            o["kind"] = f.kind;
            o["detail"] = f.detail;
            o["repro_path"] = f.reproPath;
            arr.push(std::move(o));
        }
        cli.add("failures", std::move(arr));
    }

    if (!rep.ok()) {
        std::cout << "\nwisc_fuzz: " << rep.failures.size()
                  << " failure(s); reproducers "
                  << (opts.reproDir.empty() ? "not written (no --repro-dir)"
                                            : "in " + opts.reproDir)
                  << "\n";
        cli.finish(jsonPath);
        return 1;
    }
    std::cout << "\nwisc_fuzz: all " << rep.programs
              << " programs equivalent across variants and engines.\n";
    return cli.finish(jsonPath);
}
