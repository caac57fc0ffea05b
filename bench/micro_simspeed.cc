/**
 * @file
 * Simulator-throughput benchmark: simulated µops per wall-clock second
 * for the cycle-level core, across the three binary types the paper's
 * experiments exercise most (normal branches, BASE-MAX predication,
 * wish jump/join/loop) and the Figure 14 window geometries. Runs are
 * strictly serial and individually timed, so the per-row numbers are
 * unaffected by compile time or other rows.
 *
 * `--smoke` runs a reduced matrix (two kernels, largest window only)
 * with a deliberately generous throughput floor; ctest runs that mode
 * under the `smoke` label to catch order-of-magnitude regressions in
 * the hot path without making the suite timing-sensitive. `--json PATH`
 * also writes the results as JSON; there are no other flags.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "arch/emulator.hh"
#include "harness/bench_cli.hh"
#include "harness/table.hh"
#include "uarch/core.hh"
#include "workloads/workload.hh"

using namespace wisc;

namespace {

struct VariantSpec
{
    const char *label;
    BinaryVariant variant;
};

const VariantSpec kVariants[] = {
    {"normal", BinaryVariant::Normal},
    {"base-max", BinaryVariant::BaseMax},
    {"wish-jjl", BinaryVariant::WishJumpJoinLoop},
};

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--json") {
            if (i + 1 >= argc) {
                std::cerr << "micro_simspeed: --json requires PATH\n";
                return 2;
            }
            jsonPath = argv[++i];
        } else if (a == "--help" || a == "-h") {
            std::cout << "usage: micro_simspeed [--smoke] [--json PATH]\n"
                         "\n"
                         "  --smoke       two kernels at the 512-entry "
                         "window, with a\n"
                         "                generous throughput floor "
                         "(ctest smoke target)\n"
                         "  --json PATH   also write the results as JSON\n";
            return 0;
        } else {
            std::cerr << "micro_simspeed: unknown option '" << a
                      << "' (try --help)\n";
            return 2;
        }
    }
    BenchCli cli("micro_simspeed");

    printBanner(std::cout, "Simulator throughput",
                smoke ? "simulated Muops per wall second (smoke matrix)"
                      : "simulated Muops per wall second (input A, "
                        "serial, per-run timing)");

    const std::vector<std::string> kernels =
        smoke ? std::vector<std::string>{"gzip", "mcf"} : workloadNames();
    const std::vector<unsigned> windows =
        smoke ? std::vector<unsigned>{512} : std::vector<unsigned>{128, 512};

    // Compile once, untimed: we are measuring the core, not the compiler.
    std::vector<CompiledWorkload> compiled;
    for (const std::string &k : kernels)
        compiled.push_back(compileWorkload(k));

    Table t({"window", "binary", "uops", "cycles", "wall_s", "Muops/s"});
    std::uint64_t totalUops = 0;
    double totalSimSeconds = 0.0;
    double defaultWindowUops = 0.0;
    double defaultWindowSeconds = 0.0;

    for (unsigned rob : windows) {
        SimParams params;
        params.robSize = rob;
        params.iqSize = rob / 4;
        params.lsqSize = rob / 2;

        for (const VariantSpec &vs : kVariants) {
            std::uint64_t uops = 0;
            std::uint64_t cycles = 0;
            double wall = 0.0;
            for (const CompiledWorkload &w : compiled) {
                Program prog = programFor(w, vs.variant, InputSet::A);
                StatSet stats;
                auto t0 = std::chrono::steady_clock::now();
                SimResult r = simulate(prog, params, stats);
                auto t1 = std::chrono::steady_clock::now();
                wisc_assert(r.halted, "benchmark run did not halt");
                uops += r.retiredUops;
                cycles += r.cycles;
                wall += seconds(t0, t1);
            }
            t.addRow({std::to_string(rob), vs.label, std::to_string(uops),
                      std::to_string(cycles), Table::num(wall),
                      Table::num(uops / wall / 1e6)});
            totalUops += uops;
            totalSimSeconds += wall;
            if (rob == 512) {
                defaultWindowUops += static_cast<double>(uops);
                defaultWindowSeconds += wall;
            }
        }
    }
    t.print(std::cout);

    // Functional-emulator throughput: the threaded engine the emulator
    // and the sampled-simulation fast-forward run on. Runs are repeated
    // until each timed cell is long enough to measure.
    const unsigned reps = smoke ? 10 : 40;
    std::uint64_t emuUops = 0;
    double emuWall = 0.0;
    for (const CompiledWorkload &w : compiled) {
        for (const VariantSpec &vs : kVariants) {
            Program prog = programFor(w, vs.variant, InputSet::A);
            Emulator em;
            EmuResult first{};
            auto t0 = std::chrono::steady_clock::now();
            for (unsigned i = 0; i < reps; ++i) {
                EmuResult r = em.run(prog);
                wisc_assert(r.halted, "emulator run did not halt");
                if (i == 0)
                    first = r;
                wisc_assert(r.resultReg == first.resultReg &&
                                r.memFingerprint == first.memFingerprint,
                            "emulator runs diverged across reps");
                emuUops += r.dynInsts;
            }
            auto t1 = std::chrono::steady_clock::now();
            emuWall += seconds(t0, t1);
        }
    }
    const double emuRate = static_cast<double>(emuUops) / emuWall;
    Table et({"dispatch", "uops", "wall_s", "Muops/s"});
    et.addRow({"threaded", std::to_string(emuUops), Table::num(emuWall),
               Table::num(emuRate / 1e6)});
    std::cout << "\nFunctional emulator (" << reps << " reps per cell):\n";
    et.print(std::cout);
    cli.addTable("emulator", et);
    cli.add("emu_threaded_uops_per_s", emuRate);

    const double overall =
        static_cast<double>(totalUops) / totalSimSeconds;
    const double atDefault = defaultWindowUops / defaultWindowSeconds;
    std::cout << "\nOverall: " << Table::num(overall / 1e6)
              << " Muops/s (" << Table::num(atDefault / 1e6)
              << " Muops/s at the default 512-entry window).\n";

    cli.addTable("throughput", t);
    cli.add("sim_seconds", totalSimSeconds);
    cli.add("uops_per_sim_second", overall);
    cli.add("uops_per_sim_second_rob512", atDefault);
    cli.add("smoke", smoke);

#ifdef NDEBUG
    // Generous floor: an order of magnitude below the measured optimized
    // throughput, so the smoke test only trips on real hot-path
    // regressions, never on machine noise.
    const double kFloor = 150e3;
    if (overall < kFloor) {
        std::cerr << "micro_simspeed: throughput " << overall
                  << " uops/s below floor " << kFloor << "\n";
        cli.finish(jsonPath);
        return 1;
    }
#endif
    return cli.finish(jsonPath);
}
