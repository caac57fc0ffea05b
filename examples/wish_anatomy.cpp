/**
 * @file
 * Anatomy of a wish branch in the pipeline: renders pipeline diagrams
 * of the same hard-branch kernel (a) as a normal branch and (b) as a
 * wish jump in low-confidence mode, so you can *see* the flush on the
 * left and the predicated flow-through on the right.
 *
 * Build & run:  ./build/examples/wish_anatomy
 */

#include <iostream>

#include "isa/assembler.hh"
#include "uarch/core.hh"
#include "uarch/pipetrace.hh"

int
main()
{
    using namespace wisc;

    auto kernel = [](bool wish) {
        std::string br = wish ? "wish.jump p1, then_arm"
                              : "br p1, then_arm";
        std::string join = wish ? "wish.join p2, join" : "jmp join";
        return assemble(R"(
            li r5, 0
            li r6, 77777
            li r4, 0
            loop:
            muli r6, r6, 1103515245
            addi r6, r6, 12345
            shri r7, r6, 16
            andi r7, r7, 1
            cmpi.eq p1, p2, r7, 0
            )" + br + R"(
            (p2) addi r4, r4, 1
            (p2) muli r8, r4, 3
            (p2) add r4, r4, r8
            (p2) xori r4, r4, 5
            (p2) addi r4, r4, 2
            (p2) addi r4, r4, 3
            )" + join + R"(
            then_arm:
            (p1) addi r4, r4, 2
            (p1) muli r9, r4, 5
            (p1) add r4, r4, r9
            (p1) xori r4, r4, 7
            (p1) addi r4, r4, 4
            (p1) addi r4, r4, 1
            join:
            addi r5, r5, 1
            cmpi.lt p3, p0, r5, 3000
            br p3, loop
            halt
        )");
    };

    for (bool wish : {false, true}) {
        Program p = kernel(wish);
        SimParams params;
        StatSet stats;
        PipeTracer tracer(400);
        SimResult r = simulate(p, params, stats, {&tracer});

        std::cout << "\n==== " << (wish ? "WISH JUMP/JOIN" : "NORMAL BRANCH")
                  << " ====  cycles=" << r.cycles
                  << "  flushes=" << stats.get("core.flushes") << "\n\n";
        // Show a window past the warm-up so the steady state is visible.
        tracer.render(std::cout, 300, 34);
    }

    std::cout << "\nOn the left run, mispredictions appear as lowercase "
                 "(squashed) rows followed\nby a refetch ~30 cycles "
                 "later. On the right, both arms flow through as\n"
                 "predicated code ('~' rows are the not-taken arm's "
                 "NOPs) with no flush.\n";
    return 0;
}
