/**
 * @file
 * The WISC instruction set: a RISC-like, fully predicated µop ISA.
 *
 * WISC plays the role of the paper's "generic RISC µops translated from
 * IA-64" (§4.1). Every instruction carries a qualifying predicate (qp);
 * when the qp evaluates FALSE the instruction is an architectural NOP.
 * Conditional branches use the qp as their branch condition, exactly like
 * IA-64's "(qp) br.cond". Compare instructions write a predicate and,
 * optionally, its complement (pd2), mirroring IA-64's two-target compares.
 *
 * Wish-branch support follows Figure 7 of the paper: a conditional branch
 * additionally carries a btype (normal/wish) and wtype (jump/join/loop)
 * hint. Hardware without wish support may ignore the hints and treat the
 * branch as a normal conditional branch.
 */

#ifndef WISC_ISA_ISA_HH_
#define WISC_ISA_ISA_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace wisc {

/** Functional-unit class used by the timing model. */
enum class InstrClass : std::uint8_t
{
    IntAlu,
    IntMul,
    IntDiv,
    Load,
    Store,
    Branch,
    Other,
};

/**
 * Operand form of an opcode: which fields it reads and writes, and how
 * arch/semantics.hh applies its value expression. The letters name the
 * destination, then the sources: R an integer register, P a predicate
 * register, I the immediate.
 */
enum class OpForm : std::uint8_t
{
    RRR,  ///< rd = E(a, b)
    RRI,  ///< rd = E(a, imm)
    RI,   ///< rd = E(imm)
    PRR,  ///< compare: pd = E(a, b), pd2 = !pd
    PRI,  ///< compare: pd = E(a, imm), pd2 = !pd
    PI,   ///< pd = E(imm)
    PP,   ///< pd = E(ps)
    PPP,  ///< pd = E(ps, ps2)
    Ld,   ///< rd = mem[a + imm], E bytes, zero-extended
    St,   ///< mem[a + imm] = b, low E bytes
    Br,   ///< go to target; taken iff the qp is TRUE
    Jmp,  ///< go to target
    Call, ///< rd = return address; go to target
    JmpR, ///< go to the byte address in a
    Nop,
    Halt,
};

/**
 * The opcode list: one X(Name, mnemonic, form, class, E) row per opcode,
 * in encoding order. It generates the Opcode enum and the metadata
 * below, and arch/semantics.hh generates both execution engines from
 * it, so each opcode's meaning is written exactly once. E is the value
 * the opcode computes from its form's operands — a = R[rs1],
 * b = R[rs2], imm, ps = P[ps], ps2 = P[ps2] — using the arithmetic of
 * arch/exec_inline.hh; for Ld and St it is the access size in bytes,
 * and the control forms leave it empty. Reordering rows changes the
 * encoding, and with it every program fingerprint.
 */
#define WISC_OPCODES(X)                                                  \
    X(Add,    "add",     RRR,  IntAlu, wrapAdd(a, b))                    \
    X(Sub,    "sub",     RRR,  IntAlu, wrapSub(a, b))                    \
    X(And,    "and",     RRR,  IntAlu, a & b)                            \
    X(Or,     "or",      RRR,  IntAlu, a | b)                            \
    X(Xor,    "xor",     RRR,  IntAlu, a ^ b)                            \
    X(Shl,    "shl",     RRR,  IntAlu, shiftLeft(a, b))                  \
    X(Shr,    "shr",     RRR,  IntAlu, shiftRight(a, b))                 \
    X(Sra,    "sra",     RRR,  IntAlu, shiftRightArith(a, b))            \
    X(Mul,    "mul",     RRR,  IntMul, wrapMul(a, b))                    \
    X(Div,    "div",     RRR,  IntDiv, safeDiv(a, b))                    \
    X(Rem,    "rem",     RRR,  IntDiv, safeRem(a, b))                    \
    X(AddI,   "addi",    RRI,  IntAlu, wrapAdd(a, imm))                  \
    X(AndI,   "andi",    RRI,  IntAlu, a & imm)                          \
    X(OrI,    "ori",     RRI,  IntAlu, a | imm)                          \
    X(XorI,   "xori",    RRI,  IntAlu, a ^ imm)                          \
    X(ShlI,   "shli",    RRI,  IntAlu, shiftLeft(a, imm))                \
    X(ShrI,   "shri",    RRI,  IntAlu, shiftRight(a, imm))               \
    X(SraI,   "srai",    RRI,  IntAlu, shiftRightArith(a, imm))          \
    X(MulI,   "muli",    RRI,  IntMul, wrapMul(a, imm))                  \
    X(Li,     "li",      RI,   IntAlu, imm)                              \
    X(CmpEq,  "cmp.eq",  PRR,  IntAlu, a == b)                           \
    X(CmpNe,  "cmp.ne",  PRR,  IntAlu, a != b)                           \
    X(CmpLt,  "cmp.lt",  PRR,  IntAlu, a < b)                            \
    X(CmpLe,  "cmp.le",  PRR,  IntAlu, a <= b)                           \
    X(CmpGt,  "cmp.gt",  PRR,  IntAlu, a > b)                            \
    X(CmpGe,  "cmp.ge",  PRR,  IntAlu, a >= b)                           \
    X(CmpLtU, "cmp.ltu", PRR,  IntAlu, UWord(a) < UWord(b))              \
    X(CmpGeU, "cmp.geu", PRR,  IntAlu, UWord(a) >= UWord(b))             \
    X(CmpEqI, "cmpi.eq", PRI,  IntAlu, a == imm)                         \
    X(CmpNeI, "cmpi.ne", PRI,  IntAlu, a != imm)                         \
    X(CmpLtI, "cmpi.lt", PRI,  IntAlu, a < imm)                          \
    X(CmpLeI, "cmpi.le", PRI,  IntAlu, a <= imm)                         \
    X(CmpGtI, "cmpi.gt", PRI,  IntAlu, a > imm)                          \
    X(CmpGeI, "cmpi.ge", PRI,  IntAlu, a >= imm)                         \
    X(PSet,   "pset",    PI,   IntAlu, (imm & 1) != 0)                   \
    X(PNot,   "pnot",    PP,   IntAlu, !ps)                              \
    X(PAnd,   "pand",    PPP,  IntAlu, ps && ps2)                        \
    X(POr,    "por",     PPP,  IntAlu, ps || ps2)                        \
    X(Ld,     "ld",      Ld,   Load,   8)                                \
    X(St,     "st",      St,   Store,  8)                                \
    X(Ld1,    "ld1",     Ld,   Load,   1)                                \
    X(St1,    "st1",     St,   Store,  1)                                \
    X(Br,     "br",      Br,   Branch, )                                 \
    X(Jmp,    "jmp",     Jmp,  Branch, )                                 \
    X(JmpR,   "jmpr",    JmpR, Branch, )                                 \
    X(Call,   "call",    Call, Branch, )                                 \
    X(Ret,    "ret",     JmpR, Branch, )                                 \
    X(Nop,    "nop",     Nop,  Other,  )                                 \
    X(Halt,   "halt",    Halt, Other,  )

/** Every architectural µop opcode. Br is the conditional branch (the
 *  only opcode wish hints apply to); Ret is JmpR marked as a return. */
enum class Opcode : std::uint8_t
{
#define WISC_OPCODE_ENUM(Name, ...) Name,
    WISC_OPCODES(WISC_OPCODE_ENUM)
#undef WISC_OPCODE_ENUM
    NumOpcodes
};

/** Static properties of one opcode, generated from WISC_OPCODES. */
struct OpInfo
{
    const char *name; ///< mnemonic ("add", "cmp.lt", ...)
    OpForm form;
    InstrClass cls;
};

inline constexpr OpInfo kOpInfo[] = {
#define WISC_OPCODE_INFO(Name, Mnem, Form, Cls, E)                       \
    {Mnem, OpForm::Form, InstrClass::Cls},
    WISC_OPCODES(WISC_OPCODE_INFO)
#undef WISC_OPCODE_INFO
};

constexpr OpForm
opForm(Opcode op)
{
    return kOpInfo[static_cast<std::size_t>(op)].form;
}

/** True iff the opcode is an integer compare (writes pd and pd2). */
constexpr bool
isCompare(Opcode op)
{
    return opForm(op) == OpForm::PRR || opForm(op) == OpForm::PRI;
}

/** True iff the opcode combines predicates (PNot, PAnd, POr). */
constexpr bool
isPredOp(Opcode op)
{
    return opForm(op) == OpForm::PP || opForm(op) == OpForm::PPP;
}

/** Wish-branch hint (the wtype field of Figure 7; None == btype 0). */
enum class WishKind : std::uint8_t
{
    None,   ///< normal conditional branch
    Jump,   ///< first wish branch of an if-converted region
    Join,   ///< control-dependent follow-on wish branch
    Loop,   ///< predicated backward branch
};

/** Sentinel predicate destination meaning "no predicate written". Writing
 *  p0 is architecturally meaningless (p0 is hardwired TRUE), so index 0
 *  doubles as the null destination. */
inline constexpr PredIdx kPredNone = 0;

/** Sentinel for "no branch target". */
inline constexpr std::uint32_t kNoTarget = 0xffffffff;

/** Base byte address of the text segment; each µop occupies 4 bytes. */
inline constexpr Addr kTextBase = 0x10000;

/** Fixed encoded size of one µop in the I-cache image. */
inline constexpr Addr kInstBytes = 4;

/**
 * One architectural µop. Fields not used by an opcode are zero. The
 * 'target' of control transfers is an *instruction index* into the owning
 * Program; byte addresses are derived as kTextBase + index * kInstBytes.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    /** Qualifying predicate; 0 (p0) means always execute. For Br this is
     *  also the branch condition. */
    PredIdx qp = 0;
    RegIdx rd = 0;          ///< destination register
    RegIdx rs1 = 0;         ///< first source register
    RegIdx rs2 = 0;         ///< second source register
    PredIdx pd = kPredNone; ///< predicate destination
    PredIdx pd2 = kPredNone;///< complement predicate destination
    PredIdx ps = 0;         ///< predicate source (PNot/PAnd/POr)
    PredIdx ps2 = 0;        ///< second predicate source (PAnd/POr)
    Word imm = 0;           ///< immediate operand
    std::uint32_t target = kNoTarget; ///< branch target (instruction index)
    WishKind wish = WishKind::None;   ///< wish hint; valid only for Br
    /** IA-64-style unconditional-compare semantics: when the qualifying
     *  predicate is FALSE, a compare with unc set writes FALSE to both
     *  predicate destinations instead of preserving them. Required by
     *  if-conversion so that dead-path guard predicates read FALSE. */
    bool unc = false;

    bool isBranch() const { return op == Opcode::Br; }
    bool
    isControl() const
    {
        return op == Opcode::Br || op == Opcode::Jmp || op == Opcode::JmpR ||
               op == Opcode::Call || op == Opcode::Ret;
    }
    bool isWish() const { return op == Opcode::Br && wish != WishKind::None; }
    bool isLoad() const { return op == Opcode::Ld || op == Opcode::Ld1; }
    bool isStore() const { return op == Opcode::St || op == Opcode::St1; }
    bool isMem() const { return isLoad() || isStore(); }
    bool
    isIndirect() const
    {
        return op == Opcode::JmpR || op == Opcode::Ret;
    }

    /** True iff this opcode writes an integer register when qp is TRUE. */
    bool
    writesReg() const
    {
        const OpForm f = opForm(op);
        return f == OpForm::RRR || f == OpForm::RRI || f == OpForm::RI ||
               f == OpForm::Ld || f == OpForm::Call;
    }
    /** True iff this opcode writes one or two predicate registers. */
    bool
    writesPred() const
    {
        const OpForm f = opForm(op);
        return isCompare(op) || f == OpForm::PI || f == OpForm::PP ||
               f == OpForm::PPP;
    }
    /** True iff rs1 is a live source for this opcode. */
    bool
    readsRs1() const
    {
        const OpForm f = opForm(op);
        return f == OpForm::RRR || f == OpForm::RRI || isCompare(op) ||
               f == OpForm::Ld || f == OpForm::St || f == OpForm::JmpR;
    }
    /** True iff rs2 is a live source for this opcode. */
    bool
    readsRs2() const
    {
        const OpForm f = opForm(op);
        return f == OpForm::RRR || f == OpForm::PRR || f == OpForm::St;
    }
    /** Functional-unit class for the timing model. */
    InstrClass
    instrClass() const
    {
        return kOpInfo[static_cast<std::size_t>(op)].cls;
    }
};

/**
 * Predecoded static properties of one instruction, packed into a bit
 * mask. The cycle-level core computes these once per static instruction
 * (instead of re-deriving them from the opcode tables on every fetch of
 * every dynamic instance) and carries the mask in each in-flight µop.
 * All bits are functions of the instruction encoding only — never of
 * machine configuration — so the mask is valid for any SimParams.
 */
enum PreFlag : std::uint16_t
{
    kPreCtrl = 1 << 0,       ///< isControl()
    kPreCondBr = 1 << 1,     ///< op == Br
    kPreLoad = 1 << 2,       ///< isLoad()
    kPreStore = 1 << 3,      ///< isStore()
    kPreMem = 1 << 4,        ///< isMem()
    kPreWritesReg = 1 << 5,  ///< writesReg()
    kPreWritesPred = 1 << 6, ///< writesPred()
    kPreReadsRs1 = 1 << 7,   ///< readsRs1()
    kPreReadsRs2 = 1 << 8,   ///< readsRs2()
    kPreCompare = 1 << 9,    ///< integer compare (writes pd/pd2)
    /** Static shape of the select-µop expansion rule: a guarded
     *  register-writing non-branch (§5.3.3). */
    kPreSelectShape = 1 << 10,
};

/** Compute the PreFlag mask for one instruction. */
std::uint16_t predecodeFlags(const Instruction &inst);

/** Mnemonic for an opcode ("add", "cmp.lt", ...). */
constexpr const char *
opcodeName(Opcode op)
{
    return kOpInfo[static_cast<std::size_t>(op)].name;
}

/** Inverse of opcodeName(); nullopt for an unknown mnemonic. */
std::optional<Opcode> opcodeByName(std::string_view name);

/** Mnemonic suffix for a wish kind ("", "wish.jump", ...). */
const char *wishKindName(WishKind w);

/** Disassemble one instruction (targets printed as indices). */
std::string disassemble(const Instruction &inst);

/** Byte address of the instruction at the given index. */
inline Addr
instAddr(std::uint64_t index)
{
    return kTextBase + index * kInstBytes;
}

/** Inverse of instAddr. */
inline std::uint64_t
addrToIndex(Addr pc)
{
    return (pc - kTextBase) / kInstBytes;
}

} // namespace wisc

#endif // WISC_ISA_ISA_HH_
