/**
 * @file
 * wisc-run: the command-line entry point of the simulator.
 *
 *   wisc-run --list
 *   wisc-run --workload mcf [--variant wish-jjl] [--input A]
 *            [--rob 512] [--stages 30] [--select-uop] [--no-wish]
 *            [--no-loop-bias] [--perfect-cbp] [--perfect-conf]
 *            [--no-depend] [--no-fetch] [--stats] [--listing] [--dot]
 *   wisc-run --asm file.s [--stats]
 *
 * Runs one simulation and prints cycles/IPC plus (optionally) the full
 * statistics dump, the binary listing, or a Graphviz CFG of the
 * compiled kernel.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse.hh"
#include "compiler/dot.hh"
#include "harness/runner.hh"
#include "uarch/pipetrace.hh"
#include "isa/assembler.hh"

namespace {

using namespace wisc;

int
usage(int code)
{
    std::cout <<
        "usage: wisc-run --list\n"
        "       wisc-run --workload NAME [options]\n"
        "       wisc-run --asm FILE.s [options]\n"
        "\n"
        "workload options:\n"
        "  --variant V     normal | base-def | base-max | wish-jj |\n"
        "                  wish-jjl (default wish-jjl)\n"
        "  --input X       A | B | C (default A)\n"
        "  --listing       print the compiled binary\n"
        "  --dot           print the kernel CFG as Graphviz\n"
        "\n"
        "machine options:\n"
        "  --rob N         reorder buffer entries (default 512)\n"
        "  --stages N      pipeline depth (default 30)\n"
        "  --select-uop    use the select-uop predication mechanism\n"
        "  --no-wish       ignore wish hint bits\n"
        "  --no-loop-bias  disable the overestimating loop predictor\n"
        "  --dyn-pred M    dynamic predication for normal branches:\n"
        "                  off | merge-point | fetch-gate (default off)\n"
        "  --perfect-cbp / --perfect-conf / --no-depend / --no-fetch\n"
        "                  oracle knobs (Figure 2 / 10 idealizations)\n"
        "\n"
        "output options:\n"
        "  --stats         dump every statistic\n"
        "  --cpi-stack     collect the attrib.* cycle-attribution "
        "counters\n"
        "  --branch-profile\n"
        "                  collect the per-static-branch profile table\n"
        "  --pipeview N    render a pipeline diagram of the first N uops\n";
    return code;
}

/** A malformed command line: main() prints it with the usage and
 *  exits 2. Errors of the run itself are FatalErrors and exit 1. */
struct UsageError
{
    std::string msg;
};

template <typename T>
void
countArg(const std::string &flag, const std::string &value, T &out)
{
    if (!parseCount(value, out))
        throw UsageError{flag + " wants a non-negative integer, got '" +
                         value + "'"};
}

BinaryVariant
parseVariant(const std::string &v)
{
    if (v == "normal") return BinaryVariant::Normal;
    if (v == "base-def") return BinaryVariant::BaseDef;
    if (v == "base-max") return BinaryVariant::BaseMax;
    if (v == "wish-jj") return BinaryVariant::WishJumpJoin;
    if (v == "wish-jjl") return BinaryVariant::WishJumpJoinLoop;
    throw UsageError{"unknown variant '" + v + "'"};
}

InputSet
parseInput(const std::string &v)
{
    if (v == "A" || v == "a") return InputSet::A;
    if (v == "B" || v == "b") return InputSet::B;
    if (v == "C" || v == "c") return InputSet::C;
    throw UsageError{"unknown input set '" + v + "'"};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, asmFile;
    BinaryVariant variant = BinaryVariant::WishJumpJoinLoop;
    InputSet input = InputSet::A;
    SimParams params;
    bool dumpStats = false, listing = false, dot = false;
    std::size_t pipeview = 0;

    auto next = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            throw UsageError{std::string("missing argument after ") +
                             argv[i]};
        return argv[++i];
    };

    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--list") {
                for (const auto &n : workloadNames())
                    std::cout << n << "\n";
                return 0;
            } else if (a == "--workload") {
                workload = next(i);
            } else if (a == "--asm") {
                asmFile = next(i);
            } else if (a == "--variant") {
                variant = parseVariant(next(i));
            } else if (a == "--input") {
                input = parseInput(next(i));
            } else if (a == "--rob") {
                countArg(a, next(i), params.robSize);
                params.iqSize = params.robSize / 4;
                params.lsqSize = params.robSize / 2;
            } else if (a == "--stages") {
                countArg(a, next(i), params.pipelineStages);
            } else if (a == "--select-uop") {
                params.predMech = PredMechanism::SelectUop;
            } else if (a == "--no-wish") {
                params.wishEnabled = false;
            } else if (a == "--no-loop-bias") {
                params.wishLoopBias = false;
            } else if (a == "--dyn-pred") {
                const std::string m = next(i);
                if (m == "off")
                    params.dynPred = DynPredMode::Off;
                else if (m == "merge-point")
                    params.dynPred = DynPredMode::MergePoint;
                else if (m == "fetch-gate")
                    params.dynPred = DynPredMode::FetchGate;
                else
                    throw UsageError{"--dyn-pred wants off | "
                                     "merge-point | fetch-gate, got '" +
                                     m + "'"};
            } else if (a == "--perfect-cbp") {
                params.oracle.perfectCBP = true;
            } else if (a == "--perfect-conf") {
                params.oracle.perfectConfidence = true;
            } else if (a == "--no-depend") {
                params.oracle.noDepend = true;
            } else if (a == "--no-fetch") {
                params.oracle.noFetch = true;
            } else if (a == "--stats") {
                dumpStats = true;
            } else if (a == "--cpi-stack") {
                params.collectAttribution = true;
            } else if (a == "--branch-profile") {
                params.collectBranchProfile = true;
            } else if (a == "--pipeview") {
                countArg(a, next(i), pipeview);
            } else if (a == "--listing") {
                listing = true;
            } else if (a == "--dot") {
                dot = true;
            } else if (a == "--help" || a == "-h") {
                return usage(0);
            } else {
                throw UsageError{"unknown option: " + a};
            }
        }

        if (workload.empty() && asmFile.empty())
            return usage(2);

        Program prog;
        if (!asmFile.empty()) {
            std::ifstream in(asmFile);
            if (!in)
                wisc_fatal("cannot open ", asmFile);
            std::stringstream ss;
            ss << in.rdbuf();
            prog = assemble(ss.str());
        } else {
            if (dot) {
                IrFunction fn = buildWorkloadFn(workload);
                std::cout << toDot(fn, workload);
                return 0;
            }
            CompiledWorkload w = compileWorkload(workload);
            prog = programFor(w, variant, input);
            std::cout << "# " << workload << " / "
                      << variantName(variant) << " / "
                      << inputSetName(input) << ": "
                      << prog.size() << " instructions, "
                      << w.variants.at(variant).staticWishBranches()
                      << " static wish branches\n";
        }

        if (listing)
            std::cout << prog.listing();

        StatSet stats;
        PipeTracer tracer(pipeview ? pipeview * 4 : 4096);
        std::vector<ProbeSink *> sinks;
        if (pipeview)
            sinks.push_back(&tracer);
        SimResult r = simulate(prog, params, stats, sinks);
        if (pipeview)
            tracer.render(std::cout, 0, pipeview);
        std::cout << "halted=" << (r.halted ? "yes" : "NO")
                  << " cycles=" << r.cycles
                  << " uops=" << r.retiredUops
                  << " IPC=" << r.ipc()
                  << " result=" << r.resultReg << "\n";
        if (dumpStats)
            stats.dump(std::cout);
        return r.halted ? 0 : 1;
    } catch (const UsageError &e) {
        std::cerr << e.msg << "\n";
        return usage(2);
    } catch (const wisc::FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
