#include "compiler/ifconvert.hh"

#include <algorithm>
#include <set>

#include "common/log.hh"
#include "compiler/analysis.hh"

namespace wisc {

namespace {

/**
 * Index of the compare that defines (cond, condC) in this block: the last
 * writer of either predicate, which must be a compare producing exactly
 * that complementary pair. Returns -1 if no such compare exists.
 */
int
findDefiningCmp(const IrBlock &blk, PredIdx cond, PredIdx condC)
{
    for (int i = static_cast<int>(blk.insts.size()) - 1; i >= 0; --i) {
        const Instruction &inst = blk.insts[i];
        if (!inst.writesPred())
            continue;
        bool touches = inst.pd == cond || inst.pd2 == cond ||
                       (condC != kPredNone &&
                        (inst.pd == condC || inst.pd2 == condC));
        if (!touches)
            continue;
        if (!isCompare(inst.op))
            return -1;
        bool straight = inst.pd == cond && inst.pd2 == condC;
        bool flipped = inst.pd == condC && inst.pd2 == cond;
        return (straight || flipped) ? i : -1;
    }
    return -1;
}

/** Every edge predicate the conversion of this region would consume. */
std::set<PredIdx>
edgePredicates(const IrFunction &fn, const RegionInfo &r)
{
    std::set<PredIdx> preds;
    const Terminator &ht = fn.block(r.head).term;
    preds.insert(ht.cond);
    preds.insert(ht.condC);
    for (BlockId b : r.blocks) {
        const Terminator &t = fn.block(b).term;
        if (t.kind == TermKind::CondBr) {
            preds.insert(t.cond);
            preds.insert(t.condC);
        }
    }
    preds.erase(kPredNone);
    return preds;
}

} // namespace

std::vector<RegionInfo>
findConvertibleRegions(const IrFunction &fn, const IfConvertLimits &limits)
{
    std::vector<RegionInfo> result;
    auto ipdom = immediatePostdominators(fn);
    auto preds = fn.predecessors();

    for (BlockId head = 0; head < fn.numBlocks(); ++head) {
        const IrBlock &hb = fn.block(head);
        if (hb.dead || hb.term.kind != TermKind::CondBr ||
            hb.term.wish != WishKind::None)
            continue;
        if (hb.term.condC == kPredNone)
            continue;
        if (findDefiningCmp(hb, hb.term.cond, hb.term.condC) < 0)
            continue;

        BlockId join = ipdom[head];
        if (join == kNoBlock)
            continue;

        RegionInfo r;
        r.head = head;
        r.join = join;
        r.blocks = regionBlocks(fn, head, join);
        if (r.blocks.empty())
            continue; // degenerate (both edges to join) or escaping
        if (r.blocks.size() > limits.maxBlocks)
            continue;
        if (!isAcyclic(fn, r.blocks))
            continue;

        std::set<BlockId> member(r.blocks.begin(), r.blocks.end());
        member.insert(head);

        bool ok = true;
        for (BlockId b : r.blocks) {
            const IrBlock &blk = fn.block(b);
            r.instCount += static_cast<unsigned>(blk.insts.size());

            // No side entries.
            for (BlockId p : preds[b]) {
                if (!member.count(p)) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;

            // Only plain structured terminators, each with its own
            // defining compare; no wish branches from earlier passes.
            const Terminator &t = blk.term;
            switch (t.kind) {
              case TermKind::CondBr:
                if (t.wish != WishKind::None ||
                    t.condC == kPredNone ||
                    findDefiningCmp(blk, t.cond, t.condC) < 0)
                    ok = false;
                break;
              case TermKind::Jump:
              case TermKind::Fallthrough:
                break;
              case TermKind::Indirect:
              case TermKind::Halt:
                ok = false;
                break;
            }
            if (!ok)
                break;

            // Targets stay inside the region or go to the join.
            for (BlockId s : fn.successors(b)) {
                if (s != r.join && !member.count(s)) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;
        }
        if (!ok || r.instCount > limits.maxInsts)
            continue;

        // The id order must be a topological order (every intra-region
        // edge goes forward); our builder lays hammocks out this way and
        // the converters rely on it.
        for (BlockId b : r.blocks) {
            if (b <= head) {
                ok = false;
                break;
            }
            for (BlockId s : fn.successors(b)) {
                if (s != r.join && s <= b) {
                    ok = false;
                    break;
                }
            }
        }
        if (!ok)
            continue;

        // Predicate-write safety: no region instruction may write a
        // predicate the conversion uses as an edge predicate, except each
        // block's own defining compare.
        auto edges = edgePredicates(fn, r);
        for (BlockId b : r.blocks) {
            const IrBlock &blk = fn.block(b);
            int defIdx = blk.term.kind == TermKind::CondBr
                             ? findDefiningCmp(blk, blk.term.cond,
                                               blk.term.condC)
                             : -1;
            for (int i = 0; i < static_cast<int>(blk.insts.size()); ++i) {
                const Instruction &inst = blk.insts[i];
                if (!inst.writesPred() || i == defIdx)
                    continue;
                if ((inst.pd != kPredNone && edges.count(inst.pd)) ||
                    (inst.pd2 != kPredNone && edges.count(inst.pd2))) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;
        }
        if (!ok)
            continue;

        const Terminator &ht = hb.term;
        r.fallthroughSize =
            ht.next == r.join
                ? 0
                : static_cast<unsigned>(fn.block(ht.next).insts.size());

        result.push_back(std::move(r));
    }

    std::sort(result.begin(), result.end(),
              [](const RegionInfo &a, const RegionInfo &b) {
                  if (a.blocks.size() != b.blocks.size())
                      return a.blocks.size() < b.blocks.size();
                  return a.instCount < b.instCount;
              });
    return result;
}

bool
ifConvertRegion(IrFunction &fn, const RegionInfo &r, bool keepWishBranches)
{
    // Wish generation needs the region to be exactly the live blocks laid
    // out between head and join, so that a not-taken (low-confidence)
    // fall path really executes the predicated layout.
    if (keepWishBranches) {
        if (r.join <= r.head)
            return false;
        std::vector<BlockId> between;
        for (BlockId b = r.head + 1; b < r.join; ++b)
            if (!fn.block(b).dead)
                between.push_back(b);
        if (between != r.blocks)
            return false;
    }

    auto preds = fn.predecessors();
    const Terminator headTerm = fn.block(r.head).term;

    // Edge predicate of edge (from -> to).
    auto edgePredOf = [&](BlockId from, BlockId to) -> PredIdx {
        const Terminator &t = from == r.head ? headTerm
                                             : fn.block(from).term;
        if (t.kind == TermKind::CondBr) {
            // A CondBr may have both edges to the same target; then the
            // edge is unconditional relative to the block.
            if (t.taken == t.next)
                return fn.block(from).guard
                           ? fn.block(from).guard
                           : PredIdx(0);
            return to == t.taken ? t.cond : t.condC;
        }
        // Jump/Fallthrough edges fire whenever the block was live.
        return fn.block(from).guard;
    };

    // Pass 1: assign guards in ascending (topological) id order,
    // prepending OR-materializations where a block has several in-edges.
    struct Prepend { BlockId block; std::vector<Instruction> insts; };
    std::vector<Prepend> prepends;

    for (BlockId b : r.blocks) {
        std::vector<PredIdx> in;
        for (BlockId p : preds[b])
            in.push_back(edgePredOf(p, b));
        wisc_assert(!in.empty(), "region block with no in-edges");

        // A head edge predicate of 0 can only mean a malformed region.
        for (PredIdx e : in)
            wisc_assert(e != kPredNone, "edge predicate missing");

        if (in.size() == 1) {
            fn.block(b).guard = in[0];
        } else {
            PredIdx g = fn.allocPred();
            Prepend pre{b, {}};
            Instruction por;
            por.op = Opcode::POr;
            por.pd = g;
            por.ps = in[0];
            por.ps2 = in[1];
            pre.insts.push_back(por);
            for (std::size_t i = 2; i < in.size(); ++i) {
                Instruction more;
                more.op = Opcode::POr;
                more.pd = g;
                more.ps = g;
                more.ps2 = in[i];
                pre.insts.push_back(more);
            }
            prepends.push_back(std::move(pre));
            fn.block(b).guard = g;
        }
    }

    // Pass 2: guard instructions. Predicate combiners stay unguarded (their
    // operands are already guard-composed and read FALSE on dead paths);
    // compares become unconditional so dead-path predicates read FALSE.
    for (BlockId b : r.blocks) {
        IrBlock &blk = fn.block(b);
        for (Instruction &inst : blk.insts) {
            if (isPredOp(inst.op) && inst.qp == 0)
                continue;
            if (inst.qp == 0) {
                inst.qp = blk.guard;
                if (isCompare(inst.op))
                    inst.unc = true;
            }
        }
    }
    for (auto &pre : prepends) {
        IrBlock &blk = fn.block(pre.block);
        blk.insts.insert(blk.insts.begin(), pre.insts.begin(),
                         pre.insts.end());
    }

    if (!keepWishBranches) {
        // Full predication: merge region blocks into the head and drop
        // every internal branch (Figure 3b).
        IrBlock &hb = fn.block(r.head);
        for (BlockId b : r.blocks) {
            IrBlock &blk = fn.block(b);
            hb.insts.insert(hb.insts.end(), blk.insts.begin(),
                            blk.insts.end());
            blk.insts.clear();
            blk.dead = true;
        }
        hb.term = Terminator{};
        hb.term.kind = TermKind::Jump;
        hb.term.taken = r.join;
        return true;
    }

    // Wish jump/join generation (Figures 3c, 6c): keep the blocks, keep
    // every branch, make the fall path the predicated layout.
    {
        IrBlock &hb = fn.block(r.head);
        hb.term.wish = WishKind::Jump;
        hb.term.next = r.blocks.front();
    }
    for (std::size_t i = 0; i < r.blocks.size(); ++i) {
        BlockId b = r.blocks[i];
        BlockId follow = (i + 1 < r.blocks.size()) ? r.blocks[i + 1]
                                                   : r.join;
        IrBlock &blk = fn.block(b);
        Terminator &t = blk.term;
        switch (t.kind) {
          case TermKind::CondBr:
            t.wish = WishKind::Join;
            t.next = follow;
            break;
          case TermKind::Jump:
          case TermKind::Fallthrough: {
            BlockId target = t.kind == TermKind::Jump ? t.taken : t.next;
            if (target == follow) {
                t = Terminator{};
                t.kind = TermKind::Fallthrough;
                t.next = follow;
            } else {
                Terminator nt;
                nt.kind = TermKind::CondBr;
                nt.cond = blk.guard;
                nt.condC = kPredNone;
                nt.taken = target;
                nt.next = follow;
                nt.wish = WishKind::Join;
                t = nt;
            }
            break;
          }
          default:
            wisc_panic("unexpected terminator in wish conversion");
        }
    }
    return true;
}

} // namespace wisc
