/**
 * @file
 * A small research study built on the library: how does the confidence
 * threshold trade predication overhead against flush elimination? Runs
 * the vpr-like workload's wish binary across thresholds and reports the
 * high/low confidence mix, flushes, and execution time.
 *
 * Build & run:  ./build/examples/confidence_study
 */

#include <iostream>

#include "harness/runner.hh"
#include "harness/table.hh"

int
main()
{
    using namespace wisc;

    printBanner(std::cout,
                "Study: confidence threshold vs wish-branch behavior",
                "vpr workload, wish jump/join/loop binary (input A)");

    CompiledWorkload w = compileWorkload("vpr");

    double normal = static_cast<double>(
        run(programFor(w, BinaryVariant::Normal, InputSet::A))
            .result.cycles);

    Table t({"threshold", "rel-time", "high-conf", "low-conf", "flushes",
             "high-mispred"});
    for (unsigned th : {1u, 2u, 4u, 8u, 12u, 15u}) {
        SimParams p;
        p.confThreshold = th;
        RunOutcome r = run(
            programFor(w, BinaryVariant::WishJumpJoinLoop, InputSet::A), p);
        std::uint64_t high = 0, low = 0, highM = 0;
        for (const char *k : {"jump", "join", "loop"}) {
            std::string pre = std::string("wish.") + k + ".";
            high += r.stat(pre + "high.correct") +
                    r.stat(pre + "high.mispred");
            highM += r.stat(pre + "high.mispred");
            low += r.stat(pre + "low.correct") +
                   r.stat(pre + "low.mispred") +
                   r.stat(pre + "low.early_exit") +
                   r.stat(pre + "low.late_exit") +
                   r.stat(pre + "low.no_exit");
        }
        t.addRow({std::to_string(th),
                  Table::num(static_cast<double>(r.result.cycles) /
                             normal),
                  std::to_string(high), std::to_string(low),
                  std::to_string(r.stat("core.flushes")),
                  std::to_string(highM)});
    }
    t.print(std::cout);

    std::cout << "\nLow thresholds trust the predictor too much "
                 "(high-confidence mispredictions flush); very high "
                 "thresholds predicate everything (overhead without "
                 "benefit). The sweet spot sits in between.\n";
    return 0;
}
