#include "compiler/wishloop.hh"

#include <algorithm>

#include "common/log.hh"

namespace wisc {

namespace {

bool
writesEither(const Instruction &inst, PredIdx a, PredIdx b)
{
    if (!inst.writesPred())
        return false;
    return (inst.pd != kPredNone && (inst.pd == a || inst.pd == b)) ||
           (inst.pd2 != kPredNone && (inst.pd2 == a || inst.pd2 == b));
}

/** Guard one instruction with the loop predicate (Figure 4b style). */
void
guardInst(Instruction &inst, PredIdx p)
{
    if (isPredOp(inst.op) && inst.qp == 0)
        return; // operands are guard-composed; result is dead-safe
    if (inst.qp == 0) {
        inst.qp = p;
        if (isCompare(inst.op))
            inst.unc = true;
    }
}

bool
matchDoWhile(const IrFunction &fn,
             const std::vector<std::vector<BlockId>> &preds, BlockId x,
             unsigned maxBodyInsts, LoopInfo &out)
{
    const IrBlock &blk = fn.block(x);
    const Terminator &t = blk.term;
    if (t.kind != TermKind::CondBr || t.wish != WishKind::None ||
        t.taken != x || t.next == x || t.cond == kPredNone)
        return false;
    if (blk.insts.size() >= maxBodyInsts)
        return false;

    // The continuation predicate must be defined by exactly one compare in
    // the body, writing no complement (the complement would go stale on
    // predicated-off iterations).
    int def = -1;
    for (int i = static_cast<int>(blk.insts.size()) - 1; i >= 0; --i) {
        if (writesEither(blk.insts[i], t.cond, t.condC)) {
            def = i;
            break;
        }
    }
    if (def < 0)
        return false;
    const Instruction &cmp = blk.insts[def];
    if (!isCompare(cmp.op) || cmp.pd != t.cond || cmp.pd2 != kPredNone)
        return false;
    for (int i = 0; i < def; ++i)
        if (writesEither(blk.insts[i], t.cond, t.condC))
            return false;

    // Every outside predecessor must enter unconditionally so the pset
    // cannot clobber the predicate on a non-loop path.
    for (BlockId p : preds[x]) {
        if (p == x)
            continue;
        const Terminator &pt = fn.block(p).term;
        if (pt.kind != TermKind::Jump && pt.kind != TermKind::Fallthrough)
            return false;
    }

    out.shape = LoopInfo::Shape::DoWhile;
    out.header = x;
    out.body = x;
    out.bodySize = static_cast<unsigned>(blk.insts.size());
    return true;
}

bool
matchWhile(const IrFunction &fn,
           const std::vector<std::vector<BlockId>> &preds, BlockId h,
           unsigned maxBodyInsts, LoopInfo &out)
{
    const IrBlock &hb = fn.block(h);
    const Terminator &ht = hb.term;
    if (ht.kind != TermKind::CondBr || ht.wish != WishKind::None ||
        ht.cond == kPredNone || ht.condC == kPredNone)
        return false;

    // One successor is the single-block body that loops back to h.
    BlockId x = kNoBlock;
    if (ht.taken != h && ht.taken < fn.numBlocks()) {
        const Terminator &xt = fn.block(ht.taken).term;
        if ((xt.kind == TermKind::Jump && xt.taken == h) ||
            (xt.kind == TermKind::Fallthrough && xt.next == h))
            x = ht.taken;
    }
    if (x == kNoBlock && ht.next != h && ht.next < fn.numBlocks()) {
        const Terminator &xt = fn.block(ht.next).term;
        if ((xt.kind == TermKind::Jump && xt.taken == h) ||
            (xt.kind == TermKind::Fallthrough && xt.next == h))
            x = ht.next;
    }
    if (x == kNoBlock || x == h)
        return false;
    if (preds[x].size() != 1 || preds[x][0] != h)
        return false;

    const IrBlock &xb = fn.block(x);
    unsigned bodySize =
        static_cast<unsigned>(xb.insts.size() + hb.insts.size());
    if (bodySize >= maxBodyInsts)
        return false;

    // The header must define (cond, condC) with exactly one compare.
    int def = -1;
    for (int i = static_cast<int>(hb.insts.size()) - 1; i >= 0; --i) {
        if (writesEither(hb.insts[i], ht.cond, ht.condC)) {
            def = i;
            break;
        }
    }
    if (def < 0)
        return false;
    const Instruction &cmp = hb.insts[def];
    bool straight = cmp.pd == ht.cond && cmp.pd2 == ht.condC;
    bool flipped = cmp.pd == ht.condC && cmp.pd2 == ht.cond;
    if (!isCompare(cmp.op) || (!straight && !flipped))
        return false;
    for (int i = 0; i < def; ++i)
        if (writesEither(hb.insts[i], ht.cond, ht.condC))
            return false;
    for (const Instruction &inst : xb.insts)
        if (writesEither(inst, ht.cond, ht.condC))
            return false;

    out.shape = LoopInfo::Shape::While;
    out.header = h;
    out.body = x;
    out.bodySize = bodySize;
    return true;
}

} // namespace

std::vector<LoopInfo>
findWishLoops(const IrFunction &fn, unsigned maxBodyInsts)
{
    std::vector<LoopInfo> result;
    auto preds = fn.predecessors();
    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        if (fn.block(b).dead)
            continue;
        LoopInfo info;
        if (matchDoWhile(fn, preds, b, maxBodyInsts, info) ||
            matchWhile(fn, preds, b, maxBodyInsts, info))
            result.push_back(info);
    }
    return result;
}

bool
convertWishLoop(IrFunction &fn, const LoopInfo &loop)
{
    auto preds = fn.predecessors();

    if (loop.shape == LoopInfo::Shape::DoWhile) {
        LoopInfo check;
        if (!matchDoWhile(fn, preds, loop.body, loop.bodySize + 1, check))
            return false;

        IrBlock &blk = fn.block(loop.body);
        PredIdx p = blk.term.cond;

        // Initialize the continuation predicate in every preheader
        // (Figure 4b: "mov p1, 1" in block H).
        for (BlockId pre : preds[loop.body]) {
            if (pre == loop.body)
                continue;
            Instruction pset;
            pset.op = Opcode::PSet;
            pset.pd = p;
            pset.imm = 1;
            fn.block(pre).insts.push_back(pset);
        }

        for (Instruction &inst : blk.insts)
            guardInst(inst, p);
        blk.term.wish = WishKind::Loop;
        blk.guard = p;
        return true;
    }

    // While shape: rotate the loop (Figure 5b).
    LoopInfo check;
    if (!matchWhile(fn, preds, loop.header, loop.bodySize + 1, check) ||
        check.body != loop.body)
        return false;

    IrBlock &hb = fn.block(loop.header);
    IrBlock &xb = fn.block(loop.body);
    const Terminator ht = hb.term;
    PredIdx p = ht.taken == loop.body ? ht.cond : ht.condC;
    PredIdx pc = ht.taken == loop.body ? ht.condC : ht.cond;
    BlockId exit = ht.taken == loop.body ? ht.next : ht.taken;

    // Guard the body, then append guarded copies of the header's
    // per-iteration computation (including the condition compare).
    for (Instruction &inst : xb.insts)
        guardInst(inst, p);
    for (const Instruction &orig : hb.insts) {
        Instruction copy = orig;
        guardInst(copy, p);
        // The continuation compare itself must preserve (not clear) its
        // destinations on predicated-off iterations, so that over-fetched
        // NOP iterations leave the exit predicate intact.
        if (writesEither(copy, ht.cond, ht.condC))
            copy.unc = false;
        xb.insts.push_back(copy);
    }

    Terminator nt;
    nt.kind = TermKind::CondBr;
    nt.cond = p;
    nt.condC = pc;
    nt.taken = loop.body;
    nt.next = exit;
    nt.wish = WishKind::Loop;
    xb.term = nt;
    xb.guard = p;

    hb.term = Terminator{};
    hb.term.kind = TermKind::Fallthrough;
    hb.term.next = loop.body;
    return true;
}

} // namespace wisc
