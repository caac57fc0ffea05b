#include "compiler/ir.hh"

#include "common/log.hh"

namespace wisc {

BlockId
IrFunction::newBlock(const std::string &name)
{
    blocks_.push_back(IrBlock{});
    blocks_.back().name = name;
    return static_cast<BlockId>(blocks_.size() - 1);
}

IrBlock &
IrFunction::block(BlockId id)
{
    wisc_assert(id < blocks_.size(), "bad block id ", id);
    return blocks_[id];
}

const IrBlock &
IrFunction::block(BlockId id) const
{
    wisc_assert(id < blocks_.size(), "bad block id ", id);
    return blocks_[id];
}

void
IrFunction::addData(Addr base, std::vector<Word> words)
{
    data_.push_back({base, std::move(words)});
}

std::vector<BlockId>
IrFunction::successors(BlockId id) const
{
    const Terminator &t = block(id).term;
    switch (t.kind) {
      case TermKind::Fallthrough:
        return {t.next};
      case TermKind::Jump:
        return {t.taken};
      case TermKind::CondBr:
        return {t.taken, t.next};
      case TermKind::Indirect:
      case TermKind::Halt:
        return {};
    }
    return {};
}

std::vector<std::vector<BlockId>>
IrFunction::predecessors() const
{
    std::vector<std::vector<BlockId>> preds(blocks_.size());
    for (BlockId b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].dead)
            continue;
        for (BlockId s : successors(b))
            preds[s].push_back(b);
    }
    return preds;
}

PredIdx
IrFunction::allocPred()
{
    if (nextFresh_ <= maxUserPred_)
        wisc_fatal("out of predicate registers for pass-generated guards");
    return nextFresh_--;
}

void
IrFunction::setMaxUserPred(PredIdx p)
{
    if (p > maxUserPred_)
        maxUserPred_ = p;
    if (maxUserPred_ >= nextFresh_)
        wisc_fatal("user predicates collide with fresh-guard pool");
}

void
IrFunction::validate() const
{
    wisc_assert(!blocks_.empty(), "empty IR function");
    wisc_assert(entry_ < blocks_.size() && !blocks_[entry_].dead,
                "bad IR entry block");
    for (BlockId b = 0; b < blocks_.size(); ++b) {
        const IrBlock &blk = blocks_[b];
        if (blk.dead)
            continue;
        for (const Instruction &inst : blk.insts) {
            if (inst.isControl())
                wisc_fatal("block ", b,
                           " contains a control instruction in its body");
        }
        const Terminator &t = blk.term;
        auto check_target = [&](BlockId tgt, const char *what) {
            if (tgt == kNoBlock || tgt >= blocks_.size() ||
                blocks_[tgt].dead)
                wisc_fatal("block ", b, " has bad ", what, " target");
        };
        switch (t.kind) {
          case TermKind::Fallthrough:
            check_target(t.next, "fallthrough");
            break;
          case TermKind::Jump:
            check_target(t.taken, "jump");
            break;
          case TermKind::CondBr:
            check_target(t.taken, "taken");
            check_target(t.next, "not-taken");
            if (t.cond == 0)
                wisc_fatal("block ", b, " branches on p0");
            break;
          case TermKind::Indirect:
          case TermKind::Halt:
            break;
        }
    }
}

Program
IrFunction::lower(std::map<std::uint32_t, BlockId> *branchOfInst) const
{
    validate();

    // Layout: live blocks in id order.
    std::vector<BlockId> order;
    for (BlockId b = 0; b < blocks_.size(); ++b) {
        if (!blocks_[b].dead)
            order.push_back(b);
    }

    Program prog;
    for (const auto &seg : data_)
        prog.addData(seg.base, seg.words);

    // (instruction index, target block) pairs resolved after emission
    std::vector<std::pair<std::uint32_t, BlockId>> fixups;
    std::vector<std::pair<std::uint32_t, BlockId>> leaFixups;

    auto labelOf = [&](BlockId b) {
        const std::string &n = blocks_[b].name;
        return n.empty() ? "B" + std::to_string(b) : n;
    };

    for (std::size_t i = 0; i < order.size(); ++i) {
        BlockId b = order[i];
        const IrBlock &blk = blocks_[b];
        prog.defineLabel(labelOf(b));
        if (b == entry_)
            prog.setEntry(static_cast<std::uint32_t>(prog.size()));

        for (const Instruction &inst : blk.insts) {
            if (inst.op == Opcode::Li && inst.target != kNoTarget) {
                // leaBlock: materialize the target block's byte address.
                Instruction li = inst;
                leaFixups.push_back({static_cast<std::uint32_t>(
                                         prog.size()),
                                     li.target});
                li.target = kNoTarget;
                prog.append(li);
            } else {
                prog.append(inst);
            }
        }

        const Terminator &t = blk.term;
        const bool has_next_slot = i + 1 < order.size();
        auto isAdjacent = [&](BlockId tgt) {
            return has_next_slot && order[i + 1] == tgt;
        };

        switch (t.kind) {
          case TermKind::Fallthrough:
            if (!isAdjacent(t.next)) {
                Instruction j;
                j.op = Opcode::Jmp;
                j.target = 0; // fixed up below via label map
                prog.append(j);
                fixups.push_back({static_cast<std::uint32_t>(
                                      prog.size() - 1),
                                  t.next});
            }
            break;
          case TermKind::Jump:
            if (!isAdjacent(t.taken)) {
                Instruction j;
                j.op = Opcode::Jmp;
                prog.append(j);
                fixups.push_back({static_cast<std::uint32_t>(
                                      prog.size() - 1),
                                  t.taken});
            }
            break;
          case TermKind::CondBr: {
            Instruction br;
            br.op = Opcode::Br;
            br.qp = t.cond;
            br.wish = t.wish;
            if (branchOfInst)
                (*branchOfInst)[static_cast<std::uint32_t>(prog.size())] =
                    b;
            prog.append(br);
            fixups.push_back({static_cast<std::uint32_t>(prog.size() - 1),
                              t.taken});
            if (!isAdjacent(t.next)) {
                Instruction j;
                j.op = Opcode::Jmp;
                prog.append(j);
                fixups.push_back({static_cast<std::uint32_t>(
                                      prog.size() - 1),
                                  t.next});
            }
            break;
          }
          case TermKind::Indirect: {
            Instruction j;
            j.op = Opcode::JmpR;
            j.rs1 = t.reg;
            prog.append(j);
            break;
          }
          case TermKind::Halt: {
            Instruction h;
            h.op = Opcode::Halt;
            prog.append(h);
            break;
          }
        }
    }

    // Resolve block targets now that every label's index is known.
    for (const auto &f : fixups)
        prog.code()[f.first].target = prog.label(labelOf(f.second));
    for (const auto &f : leaFixups)
        prog.code()[f.first].imm =
            static_cast<Word>(instAddr(prog.label(labelOf(f.second))));

    prog.validate();
    return prog;
}

} // namespace wisc
