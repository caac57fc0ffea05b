#include "compiler/driver.hh"

#include "arch/emulator.hh"
#include "arch/state_diff.hh"
#include "common/log.hh"
#include "compiler/simplify.hh"
#include "compiler/wishloop.hh"

namespace wisc {

const BinaryVariant kAllVariants[5] = {
    BinaryVariant::Normal,      BinaryVariant::BaseDef,
    BinaryVariant::BaseMax,     BinaryVariant::WishJumpJoin,
    BinaryVariant::WishJumpJoinLoop,
};

const char *
variantName(BinaryVariant v)
{
    switch (v) {
      case BinaryVariant::Normal:           return "normal";
      case BinaryVariant::BaseDef:          return "BASE-DEF";
      case BinaryVariant::BaseMax:          return "BASE-MAX";
      case BinaryVariant::WishJumpJoin:     return "wish-jump-join";
      case BinaryVariant::WishJumpJoinLoop: return "wish-jump-join-loop";
    }
    return "?";
}

BranchStats
profileFunction(const IrFunction &fn, std::uint64_t maxSteps)
{
    std::map<std::uint32_t, BlockId> brOfInst;
    Program prog = fn.lower(&brOfInst);

    Emulator emu;
    Profile profile;
    EmuResult res = emu.run(prog, &profile,
                            maxSteps ? maxSteps
                                     : Emulator::kDefaultMaxSteps);
    // A truncated profile would silently miscompile (every taken-rate is
    // garbage), so a non-halting program is a hard error, not a warning.
    if (!res.halted)
        wisc_fatal("profiling run did not terminate within ",
                   res.dynInsts, " instructions (non-halting kernel?)");

    BranchStats stats;
    stats.takenProb.assign(fn.numBlocks(), 0.5);
    stats.mispredictRate.assign(fn.numBlocks(), 0.25);
    stats.execWeight.assign(fn.numBlocks(), 0.0);

    for (const auto &kv : brOfInst) {
        std::uint32_t inst = kv.first;
        BlockId blk = kv.second;
        const InstProfile &p = profile.perInst[inst];
        // A never-executed branch keeps the defaults above: the
        // profile's estimate for it is 0.5, not the 0.25 default.
        if (p.execCount == 0)
            continue;
        stats.takenProb[blk] = profile.takenProb(inst);
        stats.mispredictRate[blk] = profile.mispredictEstimate(inst);
        stats.execWeight[blk] =
            static_cast<double>(p.execCount) /
            static_cast<double>(profile.dynInsts ? profile.dynInsts : 1);
    }
    return stats;
}

namespace {

/** Apply region conversions for one variant until fixpoint. */
void
convertRegions(IrFunction &fn, BinaryVariant v, const BranchStats &stats,
               const CompileOptions &opts)
{
    // Bounded by the region count; each iteration converts one region.
    for (unsigned iter = 0; iter < 10000; ++iter) {
        auto regions = findConvertibleRegions(fn, opts.limits);
        bool converted = false;
        for (const RegionInfo &r : regions) {
            switch (v) {
              case BinaryVariant::Normal:
                return;
              case BinaryVariant::BaseDef:
                if (!predicationProfitable(fn, r.head, r.join, r.blocks,
                                           stats, opts.cost))
                    continue;
                converted = ifConvertRegion(fn, r, false);
                break;
              case BinaryVariant::BaseMax:
                converted = ifConvertRegion(fn, r, false);
                break;
              case BinaryVariant::WishJumpJoin:
              case BinaryVariant::WishJumpJoinLoop:
                // §3.6: with the profile-aware heuristic, branches the
                // profile marks as nearly-always-correctly-predicted
                // keep their normal branch — predication could only add
                // overhead and the wish machinery is not needed.
                if (opts.wishHeuristic == WishHeuristic::ProfileAware &&
                    stats.mispredict(r.head) < opts.easyBranchThreshold)
                    continue;
                if (r.fallthroughSize > opts.wishFallthroughThreshold) {
                    converted = ifConvertRegion(fn, r, true);
                    // Regions our builder did not lay out contiguously
                    // fall back to full predication (§4.2.2 short-branch
                    // rule applies to them as well).
                    if (!converted)
                        converted = ifConvertRegion(fn, r, false);
                } else {
                    converted = ifConvertRegion(fn, r, false);
                }
                break;
            }
            if (converted)
                break; // CFG changed; rediscover regions
        }
        if (!converted)
            return;
        // Merging the chains a conversion leaves behind exposes enclosing
        // hammocks (and, later, single-block loops) to the next round.
        simplifyChains(fn);
    }
    wisc_panic("region conversion did not reach a fixpoint");
}

void
convertLoops(IrFunction &fn, const CompileOptions &opts)
{
    for (unsigned iter = 0; iter < 10000; ++iter) {
        auto loops = findWishLoops(fn, opts.wishLoopBodyLimit);
        bool converted = false;
        for (const LoopInfo &l : loops) {
            if (convertWishLoop(fn, l)) {
                converted = true;
                break;
            }
        }
        if (!converted)
            return;
    }
    wisc_panic("wish-loop conversion did not reach a fixpoint");
}

} // namespace

CompiledBinary
compileVariant(const IrFunction &fn, BinaryVariant v,
               const BranchStats &stats, const CompileOptions &opts)
{
    IrFunction work = fn; // value copy; conversions are destructive

    convertRegions(work, v, stats, opts);
    if (v == BinaryVariant::WishJumpJoinLoop)
        convertLoops(work, opts);

    CompiledBinary out;
    out.variant = v;
    out.program = work.lower();

    for (const Instruction &inst : out.program.code()) {
        if (inst.op != Opcode::Br)
            continue;
        ++out.staticCondBranches;
        switch (inst.wish) {
          case WishKind::Jump: ++out.staticWishJumps; break;
          case WishKind::Join: ++out.staticWishJoins; break;
          case WishKind::Loop: ++out.staticWishLoops; break;
          case WishKind::None: break;
        }
    }
    return out;
}

std::map<BinaryVariant, CompiledBinary>
compileAllVariants(const IrFunction &fn, const CompileOptions &opts)
{
    BranchStats stats = profileFunction(fn, opts.profileMaxSteps);
    std::map<BinaryVariant, CompiledBinary> out;
    for (BinaryVariant v : kAllVariants)
        out.emplace(v, compileVariant(fn, v, stats, opts));
    return out;
}

VariantCheck
checkVariantEquivalence(
    const std::map<BinaryVariant, CompiledBinary> &variants,
    std::uint64_t maxSteps)
{
    auto ref = variants.find(BinaryVariant::Normal);
    if (ref == variants.end()) {
        std::string have;
        for (const auto &kv : variants) {
            if (!have.empty())
                have += ", ";
            have += variantName(kv.first);
        }
        wisc_fatal("checkVariantEquivalence: the reference 'normal' "
                   "variant is missing (have: ",
                   have.empty() ? "none" : have, ")");
    }
    if (maxSteps == 0)
        maxSteps = Emulator::kDefaultMaxSteps;

    VariantCheck out;
    auto fail = [&](const char *kind, const std::string &detail) {
        out.kind = kind;
        out.detail = detail;
        return out;
    };
    Emulator refEmu;
    out.reference = refEmu.run(ref->second.program, nullptr, maxSteps);
    ++out.checked;
    if (!out.reference.halted)
        return fail("nonhalt",
                    detail::format("normal variant did not halt within ",
                                   maxSteps, " steps"));

    for (const auto &kv : variants) {
        if (kv.first == BinaryVariant::Normal)
            continue;
        Emulator emu;
        EmuResult res = emu.run(kv.second.program, nullptr, maxSteps);
        ++out.checked;
        if (!res.halted)
            return fail("nonhalt",
                        detail::format(variantName(kv.first),
                                       " did not halt within ", maxSteps,
                                       " steps (normal halted after ",
                                       out.reference.dynInsts, ")"));
        if (StateDiff d = firstStateDiff(refEmu.state(), emu.state()))
            return fail("emu-diverge",
                        detail::format(variantName(kv.first), ": ",
                                       d.describe()));
    }
    return out;
}

unsigned
verifyVariantEquivalence(
    const std::map<BinaryVariant, CompiledBinary> &variants)
{
    VariantCheck c = checkVariantEquivalence(variants);
    if (c.kind == "emu-diverge")
        wisc_fatal("a variant diverged from normal: ", c.detail);
    if (!c.ok())
        wisc_fatal(c.detail);
    return c.checked;
}

} // namespace wisc
