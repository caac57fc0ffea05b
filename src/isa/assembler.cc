#include "isa/assembler.hh"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/log.hh"

namespace wisc {

namespace {

/** A pending direct-target fixup: instruction index -> label name. */
struct Fixup
{
    std::uint32_t inst;
    std::string label;
    int line;
};

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::string cur;
    for (char c : line) {
        if (c == ';' || c == '#')
            break;
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
            if (!cur.empty()) {
                toks.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        toks.push_back(cur);
    return toks;
}

[[noreturn]] void
asmError(int line, const std::string &msg)
{
    wisc_fatal("assembler: line ", line, ": ", msg);
}

RegIdx
parseReg(const std::string &tok, int line)
{
    if (tok.size() < 2 || tok[0] != 'r')
        asmError(line, "expected register, got '" + tok + "'");
    char *end = nullptr;
    long v = std::strtol(tok.c_str() + 1, &end, 10);
    if (*end != '\0' || v < 0 || v >= static_cast<long>(kNumIntRegs))
        asmError(line, "bad register '" + tok + "'");
    return static_cast<RegIdx>(v);
}

PredIdx
parsePred(const std::string &tok, int line)
{
    if (tok.size() < 2 || tok[0] != 'p')
        asmError(line, "expected predicate, got '" + tok + "'");
    char *end = nullptr;
    long v = std::strtol(tok.c_str() + 1, &end, 10);
    if (*end != '\0' || v < 0 || v >= static_cast<long>(kNumPredRegs))
        asmError(line, "bad predicate '" + tok + "'");
    return static_cast<PredIdx>(v);
}

Word
parseImm(const std::string &tok, int line)
{
    char *end = nullptr;
    long long v = std::strtoll(tok.c_str(), &end, 0);
    if (end == tok.c_str() || *end != '\0')
        asmError(line, "bad immediate '" + tok + "'");
    return static_cast<Word>(v);
}

} // namespace

Program
assemble(const std::string &source)
{
    Program prog;
    std::vector<Fixup> fixups;
    std::string pending_entry;
    int entry_line = 0;

    std::istringstream in(source);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        auto toks = tokenize(raw);
        if (toks.empty())
            continue;

        // Directives.
        if (toks[0] == ".data") {
            if (toks.size() < 2)
                asmError(lineno, ".data needs a base address");
            Addr base = static_cast<Addr>(parseImm(toks[1], lineno));
            std::vector<Word> words;
            for (std::size_t i = 2; i < toks.size(); ++i)
                words.push_back(parseImm(toks[i], lineno));
            prog.addData(base, std::move(words));
            continue;
        }
        if (toks[0] == ".entry") {
            if (toks.size() != 2)
                asmError(lineno, ".entry needs one label");
            pending_entry = toks[1];
            entry_line = lineno;
            continue;
        }

        // Labels (possibly several on one line, possibly followed by code).
        std::size_t t = 0;
        while (t < toks.size() && toks[t].back() == ':') {
            prog.defineLabel(toks[t].substr(0, toks[t].size() - 1));
            ++t;
        }
        if (t == toks.size())
            continue;

        Instruction inst;

        // Optional qualifying-predicate prefix "(pN)".
        if (toks[t].front() == '(') {
            std::string g = toks[t];
            if (g.back() != ')')
                asmError(lineno, "bad guard '" + g + "'");
            inst.qp = parsePred(g.substr(1, g.size() - 2), lineno);
            ++t;
            if (t == toks.size())
                asmError(lineno, "guard with no instruction");
        }

        std::string mnem = toks[t];
        std::vector<std::string> ops(toks.begin() + t + 1, toks.end());

        // Wish-branch sugar.
        WishKind wk = WishKind::None;
        if (mnem == "wish.jump") { mnem = "br"; wk = WishKind::Jump; }
        else if (mnem == "wish.join") { mnem = "br"; wk = WishKind::Join; }
        else if (mnem == "wish.loop") { mnem = "br"; wk = WishKind::Loop; }

        std::optional<Opcode> op = opcodeByName(mnem);
        if (!op)
            asmError(lineno, "unknown mnemonic '" + mnem + "'");
        inst.op = *op;
        inst.wish = wk;

        auto need = [&](std::size_t n) {
            if (ops.size() != n)
                asmError(lineno, "wrong operand count for '" + mnem + "'");
        };

        switch (opForm(inst.op)) {
          case OpForm::Br:
            // "br pN, label" — condition predicate then target.
            need(2);
            inst.qp = parsePred(ops[0], lineno);
            fixups.push_back({static_cast<std::uint32_t>(prog.size()),
                              ops[1], lineno});
            break;
          case OpForm::Jmp:
            need(1);
            fixups.push_back({static_cast<std::uint32_t>(prog.size()),
                              ops[0], lineno});
            break;
          case OpForm::Call:
            need(2);
            inst.rd = parseReg(ops[0], lineno);
            fixups.push_back({static_cast<std::uint32_t>(prog.size()),
                              ops[1], lineno});
            break;
          case OpForm::JmpR:
            need(1);
            inst.rs1 = parseReg(ops[0], lineno);
            break;
          case OpForm::RI:
            need(2);
            inst.rd = parseReg(ops[0], lineno);
            inst.imm = parseImm(ops[1], lineno);
            break;
          case OpForm::PI:
            need(2);
            inst.pd = parsePred(ops[0], lineno);
            inst.imm = parseImm(ops[1], lineno);
            break;
          case OpForm::PP:
            need(2);
            inst.pd = parsePred(ops[0], lineno);
            inst.ps = parsePred(ops[1], lineno);
            break;
          case OpForm::PPP:
            need(3);
            inst.pd = parsePred(ops[0], lineno);
            inst.ps = parsePred(ops[1], lineno);
            inst.ps2 = parsePred(ops[2], lineno);
            break;
          case OpForm::Ld:
            need(3);
            inst.rd = parseReg(ops[0], lineno);
            inst.rs1 = parseReg(ops[1], lineno);
            inst.imm = parseImm(ops[2], lineno);
            break;
          case OpForm::St:
            need(3);
            inst.rs2 = parseReg(ops[0], lineno);
            inst.rs1 = parseReg(ops[1], lineno);
            inst.imm = parseImm(ops[2], lineno);
            break;
          case OpForm::Nop:
          case OpForm::Halt:
            need(0);
            break;
          case OpForm::RRR:
            need(3);
            inst.rd = parseReg(ops[0], lineno);
            inst.rs1 = parseReg(ops[1], lineno);
            inst.rs2 = parseReg(ops[2], lineno);
            break;
          case OpForm::RRI:
            need(3);
            inst.rd = parseReg(ops[0], lineno);
            inst.rs1 = parseReg(ops[1], lineno);
            inst.imm = parseImm(ops[2], lineno);
            break;
          case OpForm::PRR:
            need(4);
            inst.pd = parsePred(ops[0], lineno);
            inst.pd2 = parsePred(ops[1], lineno);
            inst.rs1 = parseReg(ops[2], lineno);
            inst.rs2 = parseReg(ops[3], lineno);
            break;
          case OpForm::PRI:
            need(4);
            inst.pd = parsePred(ops[0], lineno);
            inst.pd2 = parsePred(ops[1], lineno);
            inst.rs1 = parseReg(ops[2], lineno);
            inst.imm = parseImm(ops[3], lineno);
            break;
        }

        prog.append(inst);
    }

    // Resolve fixups.
    for (const auto &f : fixups) {
        if (!prog.hasLabel(f.label))
            asmError(f.line, "undefined label '" + f.label + "'");
        prog.code()[f.inst].target = prog.label(f.label);
    }
    if (!pending_entry.empty()) {
        if (!prog.hasLabel(pending_entry))
            asmError(entry_line,
                     "undefined entry label '" + pending_entry + "'");
        prog.setEntry(prog.label(pending_entry));
    }

    prog.validate();
    return prog;
}

} // namespace wisc
