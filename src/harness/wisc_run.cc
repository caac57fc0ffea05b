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

#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "compiler/dot.hh"
#include "harness/runner.hh"
#include "uarch/pipetrace.hh"
#include "isa/assembler.hh"

namespace {

using namespace wisc;

int
usage()
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
    return 2;
}

/** Parse a whole decimal count: digits only (from_chars takes no sign
 *  or space for an unsigned type), no overflow, nothing after. */
template <typename T>
bool
parseCount(const std::string &s, T &out)
{
    const char *last = s.data() + s.size();
    auto [end, ec] = std::from_chars(s.data(), last, out);
    return ec == std::errc() && end == last;
}

int
badCount(const std::string &flag, const char *value)
{
    std::cerr << flag << " wants a non-negative integer, got '" << value
              << "'\n";
    return usage();
}

BinaryVariant
parseVariant(const std::string &v)
{
    if (v == "normal") return BinaryVariant::Normal;
    if (v == "base-def") return BinaryVariant::BaseDef;
    if (v == "base-max") return BinaryVariant::BaseMax;
    if (v == "wish-jj") return BinaryVariant::WishJumpJoin;
    if (v == "wish-jjl") return BinaryVariant::WishJumpJoinLoop;
    wisc_fatal("unknown variant '", v, "'");
}

InputSet
parseInput(const std::string &v)
{
    if (v == "A" || v == "a") return InputSet::A;
    if (v == "B" || v == "b") return InputSet::B;
    if (v == "C" || v == "c") return InputSet::C;
    wisc_fatal("unknown input set '", v, "'");
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
            wisc_fatal("missing argument after ", argv[i]);
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
                if (!parseCount(next(i), params.robSize))
                    return badCount(a, argv[i]);
                params.iqSize = params.robSize / 4;
                params.lsqSize = params.robSize / 2;
            } else if (a == "--stages") {
                if (!parseCount(next(i), params.pipelineStages))
                    return badCount(a, argv[i]);
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
                    wisc_fatal("--dyn-pred wants off | merge-point | "
                               "fetch-gate, got '", m, "'");
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
                if (!parseCount(next(i), pipeview))
                    return badCount(a, argv[i]);
            } else if (a == "--listing") {
                listing = true;
            } else if (a == "--dot") {
                dot = true;
            } else if (a == "--help" || a == "-h") {
                return usage();
            } else {
                std::cerr << "unknown option: " << a << "\n";
                return usage();
            }
        }

        if (workload.empty() && asmFile.empty())
            return usage();

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
        Core core(params, stats);
        if (pipeview)
            core.addSink(&tracer);
        SimResult r = core.run(prog);
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
    } catch (const wisc::FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
