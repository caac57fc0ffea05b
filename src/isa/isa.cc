#include "isa/isa.hh"

#include <map>
#include <sstream>

namespace wisc {

std::uint16_t
predecodeFlags(const Instruction &inst)
{
    std::uint16_t f = 0;
    if (inst.isControl())
        f |= kPreCtrl;
    if (inst.op == Opcode::Br)
        f |= kPreCondBr;
    if (inst.isLoad())
        f |= kPreLoad;
    if (inst.isStore())
        f |= kPreStore;
    if (inst.isMem())
        f |= kPreMem;
    if (inst.writesReg())
        f |= kPreWritesReg;
    if (inst.writesPred())
        f |= kPreWritesPred;
    if (inst.readsRs1())
        f |= kPreReadsRs1;
    if (inst.readsRs2())
        f |= kPreReadsRs2;
    if (isCompare(inst.op))
        f |= kPreCompare;
    if (inst.qp != 0 && inst.writesReg() && inst.op != Opcode::Br)
        f |= kPreSelectShape;
    return f;
}

std::optional<Opcode>
opcodeByName(std::string_view name)
{
    static const std::map<std::string_view, Opcode> table = [] {
        std::map<std::string_view, Opcode> m;
        for (unsigned i = 0;
             i < static_cast<unsigned>(Opcode::NumOpcodes); ++i) {
            auto op = static_cast<Opcode>(i);
            m.emplace(opcodeName(op), op);
        }
        return m;
    }();
    auto it = table.find(name);
    if (it == table.end())
        return std::nullopt;
    return it->second;
}

const char *
wishKindName(WishKind w)
{
    switch (w) {
      case WishKind::None: return "";
      case WishKind::Jump: return "wish.jump";
      case WishKind::Join: return "wish.join";
      case WishKind::Loop: return "wish.loop";
    }
    return "?";
}

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    if (inst.qp != 0)
        os << "(p" << unsigned(inst.qp) << ") ";
    if (inst.unc)
        os << "unc.";

    const char *name = opcodeName(inst.op);
    switch (opForm(inst.op)) {
      case OpForm::Br:
        os << (inst.wish == WishKind::None ? name : wishKindName(inst.wish))
           << " @" << inst.target;
        break;
      case OpForm::Jmp:
        os << name << " @" << inst.target;
        break;
      case OpForm::Call:
        os << name << " r" << unsigned(inst.rd) << ", @" << inst.target;
        break;
      case OpForm::JmpR:
        os << name << " r" << unsigned(inst.rs1);
        break;
      case OpForm::RI:
        os << name << " r" << unsigned(inst.rd) << ", " << inst.imm;
        break;
      case OpForm::PI:
        os << name << " p" << unsigned(inst.pd) << ", " << (inst.imm & 1);
        break;
      case OpForm::PP:
        os << name << " p" << unsigned(inst.pd) << ", p" << unsigned(inst.ps);
        break;
      case OpForm::PPP:
        os << name << " p" << unsigned(inst.pd) << ", p"
           << unsigned(inst.ps) << ", p" << unsigned(inst.ps2);
        break;
      case OpForm::Ld:
        os << name << " r" << unsigned(inst.rd) << ", [r"
           << unsigned(inst.rs1) << (inst.imm >= 0 ? "+" : "") << inst.imm
           << "]";
        break;
      case OpForm::St:
        os << name << " [r" << unsigned(inst.rs1)
           << (inst.imm >= 0 ? "+" : "") << inst.imm << "], r"
           << unsigned(inst.rs2);
        break;
      case OpForm::Nop:
      case OpForm::Halt:
        os << name;
        break;
      case OpForm::RRR:
      case OpForm::RRI:
      case OpForm::PRR:
      case OpForm::PRI:
        os << name << " ";
        if (inst.writesPred()) {
            os << "p" << unsigned(inst.pd);
            if (inst.pd2 != kPredNone)
                os << "/p" << unsigned(inst.pd2);
            os << " = ";
        } else {
            os << "r" << unsigned(inst.rd) << ", ";
        }
        os << "r" << unsigned(inst.rs1);
        if (inst.readsRs2())
            os << ", r" << unsigned(inst.rs2);
        else
            os << ", " << inst.imm;
        break;
    }
    return os.str();
}

} // namespace wisc
