/**
 * @file
 * The compilation driver: produces the five binary variants of Table 3
 * from one IR function.
 *
 *   normal            — branches untouched
 *   BASE-DEF          — if-convert regions passing the Eq 4.3 cost test
 *   BASE-MAX          — if-convert every suitable region
 *   wish jump/join    — suitable regions become wish jumps/joins when the
 *                       fall-through block has more than N instructions,
 *                       otherwise they are fully predicated (§4.2.2, N=5)
 *   wish jump/join/loop — additionally convert loop branches with bodies
 *                       shorter than L instructions into wish loops (L=30)
 */

#ifndef WISC_COMPILER_DRIVER_HH_
#define WISC_COMPILER_DRIVER_HH_

#include <map>
#include <string>

#include "arch/emulator.hh"
#include "compiler/cost.hh"
#include "compiler/ifconvert.hh"
#include "compiler/ir.hh"

namespace wisc {

/** The five Table-3 binary flavors. */
enum class BinaryVariant
{
    Normal,
    BaseDef,
    BaseMax,
    WishJumpJoin,
    WishJumpJoinLoop,
};

/** Display name ("normal", "BASE-DEF", ...). */
const char *variantName(BinaryVariant v);

/** All five variants, in Table 3 order. */
extern const BinaryVariant kAllVariants[5];

/** Which branches become wish branches (§3.6 / §4.2.2). */
enum class WishHeuristic : std::uint8_t
{
    /** The paper's evaluated rule: every suitable region becomes a wish
     *  jump/join (fall-through > N) or is predicated. */
    SizeOnly,
    /** §3.6's refinement (future work in the paper): a branch whose
     *  profile says it is almost never mispredicted stays a normal
     *  branch — no predication overhead, no extra wish instructions. */
    ProfileAware,
};

/** Compilation heuristics (§4.2.2 defaults). */
struct CompileOptions
{
    unsigned wishFallthroughThreshold = 5; ///< N
    unsigned wishLoopBodyLimit = 30;       ///< L
    WishHeuristic wishHeuristic = WishHeuristic::SizeOnly;
    /** ProfileAware: leave branches below this estimated misprediction
     *  rate as normal branches. */
    double easyBranchThreshold = 0.02;
    IfConvertLimits limits;
    CostParams cost;
    /** Step budget for the profiling run (0 = the emulator default).
     *  The fuzzer lowers this so a non-halting random program is
     *  rejected in milliseconds instead of after 400M steps. */
    std::uint64_t profileMaxSteps = 0;
};

/** A compiled binary plus its static wish-branch statistics. */
struct CompiledBinary
{
    BinaryVariant variant = BinaryVariant::Normal;
    Program program;
    unsigned staticCondBranches = 0;
    unsigned staticWishJumps = 0;
    unsigned staticWishJoins = 0;
    unsigned staticWishLoops = 0;

    unsigned
    staticWishBranches() const
    {
        return staticWishJumps + staticWishJoins + staticWishLoops;
    }
};

/**
 * Profile the function: lower the normal-branch variant, run it on the
 * functional emulator, and map branch statistics back onto IR blocks.
 * Hard error (FatalError) if the program does not halt within maxSteps
 * (0 = the emulator's default budget) — a truncated profile would
 * silently miscompile.
 */
BranchStats profileFunction(const IrFunction &fn,
                            std::uint64_t maxSteps = 0);

/** Compile one variant. The source function is copied, not modified. */
CompiledBinary compileVariant(const IrFunction &fn, BinaryVariant v,
                              const BranchStats &stats,
                              const CompileOptions &opts = CompileOptions{});

/** Compile all five variants with a shared profile. */
std::map<BinaryVariant, CompiledBinary> compileAllVariants(
    const IrFunction &fn, const CompileOptions &opts = CompileOptions{});

/** What checkVariantEquivalence() found. */
struct VariantCheck
{
    /** Variants emulated, the failing one included. The normal
     *  variant's reference run counts as that variant's check. */
    unsigned checked = 0;
    /** Empty when every variant halted and matched; otherwise "nonhalt"
     *  or "emu-diverge". */
    std::string kind;
    std::string detail; ///< the failure, naming the variant
    EmuResult reference; ///< the normal variant's run

    bool ok() const { return kind.empty(); }
};

/**
 * Functional cross-check: run the normal variant, then every other
 * variant, on the emulator within maxSteps (0 = the emulator's default
 * budget), and compare each one's full architectural state (every
 * integer register and memory word, firstStateDiff) with the normal
 * variant's. Stops at the first variant that fails. Fatal if the
 * normal variant is missing.
 */
VariantCheck checkVariantEquivalence(
    const std::map<BinaryVariant, CompiledBinary> &variants,
    std::uint64_t maxSteps = 0);

/** checkVariantEquivalence() with the default budget, fatal on any
 *  failure (a compiler bug). Returns the number of variants checked. */
unsigned verifyVariantEquivalence(
    const std::map<BinaryVariant, CompiledBinary> &variants);

} // namespace wisc

#endif // WISC_COMPILER_DRIVER_HH_
