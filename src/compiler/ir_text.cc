#include "compiler/ir_text.hh"

#include <sstream>
#include <vector>

#include "common/log.hh"

namespace wisc {
namespace {

const char *
termKindName(TermKind k)
{
    switch (k) {
      case TermKind::Fallthrough: return "fall";
      case TermKind::Jump:        return "jump";
      case TermKind::CondBr:      return "condbr";
      case TermKind::Indirect:    return "indirect";
      case TermKind::Halt:        return "halt";
    }
    return "?";
}

const char *
wishName(WishKind w)
{
    switch (w) {
      case WishKind::None: return "none";
      case WishKind::Jump: return "jump";
      case WishKind::Join: return "join";
      case WishKind::Loop: return "loop";
    }
    return "?";
}

void
writeInst(std::ostringstream &os, const Instruction &i)
{
    os << "  i " << opcodeName(i.op);
    auto field = [&](const char *k, std::uint64_t v, std::uint64_t dflt) {
        if (v != dflt)
            os << ' ' << k << '=' << v;
    };
    field("qp", i.qp, 0);
    field("rd", i.rd, 0);
    field("rs1", i.rs1, 0);
    field("rs2", i.rs2, 0);
    field("pd", i.pd, kPredNone);
    field("pd2", i.pd2, kPredNone);
    field("ps", i.ps, 0);
    field("ps2", i.ps2, 0);
    if (i.imm != 0)
        os << " imm=" << i.imm;
    if (i.target != kNoTarget)
        os << " tgt=" << i.target;
    if (i.wish != WishKind::None)
        os << " wish=" << wishName(i.wish);
    if (i.unc)
        os << " unc=1";
    os << '\n';
}

/** One parsed "k=v" pair ("wish" carries its value as text). */
struct Field
{
    std::string key;
    std::string value;
};

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::istringstream is(line);
    std::string t;
    while (is >> t) {
        if (t[0] == ';' || t[0] == '#')
            break; // comment runs to end of line
        toks.push_back(t);
    }
    return toks;
}

class Parser
{
  public:
    explicit Parser(const std::string &text) : in_(text) {}

    IrFunction
    parse()
    {
        std::string line;
        while (std::getline(in_, line)) {
            ++lineNo_;
            std::vector<std::string> toks = tokenize(line);
            if (toks.empty())
                continue;
            dispatch(toks);
        }
        finishBlocks();
        fn_.validate();
        return std::move(fn_);
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        wisc_fatal("ir_text: line ", lineNo_, ": ", what);
    }

    std::int64_t
    parseInt(const std::string &s)
    {
        try {
            std::size_t used = 0;
            long long v = std::stoll(s, &used, 0); // 0x... accepted
            if (used != s.size())
                fail("trailing junk in number '" + s + "'");
            return v;
        } catch (const std::exception &) {
            fail("bad number '" + s + "'");
        }
    }

    std::uint32_t
    parseTarget(const std::string &s)
    {
        if (s == "-")
            return kNoTarget;
        return static_cast<std::uint32_t>(parseInt(s));
    }

    WishKind
    parseWish(const std::string &s)
    {
        if (s == "none") return WishKind::None;
        if (s == "jump") return WishKind::Jump;
        if (s == "join") return WishKind::Join;
        if (s == "loop") return WishKind::Loop;
        fail("bad wish kind '" + s + "'");
    }

    std::vector<Field>
    parseFields(const std::vector<std::string> &toks, std::size_t from)
    {
        std::vector<Field> out;
        for (std::size_t i = from; i < toks.size(); ++i) {
            std::size_t eq = toks[i].find('=');
            if (eq == std::string::npos || eq == 0)
                fail("expected key=value, got '" + toks[i] + "'");
            out.push_back({toks[i].substr(0, eq), toks[i].substr(eq + 1)});
        }
        return out;
    }

    /** Ensure block ids [0, id] exist; return the (live) block. */
    IrBlock &
    touchBlock(BlockId id)
    {
        while (fn_.numBlocks() <= id)
            fn_.newBlock();
        if (id >= mentioned_.size())
            mentioned_.resize(id + 1, false);
        mentioned_[id] = true;
        return fn_.block(id);
    }

    void
    dispatch(const std::vector<std::string> &toks)
    {
        const std::string &kw = toks[0];
        if (kw == "wisc-ir") {
            if (toks.size() != 2 || toks[1] != "1")
                fail("unsupported wisc-ir version");
        } else if (kw == "entry") {
            if (toks.size() != 2)
                fail("entry takes one block id");
            entry_ = static_cast<BlockId>(parseInt(toks[1]));
            haveEntry_ = true;
        } else if (kw == "maxuserpred") {
            if (toks.size() != 2)
                fail("maxuserpred takes one value");
            fn_.setMaxUserPred(static_cast<PredIdx>(parseInt(toks[1])));
        } else if (kw == "data") {
            if (toks.size() < 2)
                fail("data needs a base address");
            Addr base = static_cast<Addr>(parseInt(toks[1]));
            std::vector<Word> words;
            for (std::size_t i = 2; i < toks.size(); ++i)
                words.push_back(parseInt(toks[i]));
            fn_.addData(base, std::move(words));
        } else if (kw == "block") {
            parseBlock(toks);
        } else if (kw == "i") {
            parseInstLine(toks);
        } else if (kw == "term") {
            parseTermLine(toks);
        } else {
            fail("unknown keyword '" + kw + "'");
        }
    }

    void
    parseBlock(const std::vector<std::string> &toks)
    {
        if (toks.size() < 2)
            fail("block needs an id");
        cur_ = static_cast<BlockId>(parseInt(toks[1]));
        IrBlock &blk = touchBlock(cur_);
        haveCur_ = true;
        for (std::size_t i = 2; i + 1 < toks.size(); i += 2) {
            if (toks[i] == "name") {
                std::string n = toks[i + 1];
                if (n.size() >= 2 && n.front() == '"' && n.back() == '"')
                    n = n.substr(1, n.size() - 2);
                blk.name = n;
            } else if (toks[i] == "guard") {
                blk.guard = static_cast<PredIdx>(parseInt(toks[i + 1]));
            } else {
                fail("unknown block attribute '" + toks[i] + "'");
            }
        }
    }

    void
    parseInstLine(const std::vector<std::string> &toks)
    {
        if (!haveCur_)
            fail("instruction outside a block");
        if (toks.size() < 2)
            fail("instruction needs an opcode");
        std::optional<Opcode> op = opcodeByName(toks[1]);
        if (!op)
            fail("unknown opcode '" + toks[1] + "'");
        Instruction inst;
        inst.op = *op;
        for (const Field &f : parseFields(toks, 2)) {
            if (f.key == "qp")
                inst.qp = static_cast<PredIdx>(parseInt(f.value));
            else if (f.key == "rd")
                inst.rd = static_cast<RegIdx>(parseInt(f.value));
            else if (f.key == "rs1")
                inst.rs1 = static_cast<RegIdx>(parseInt(f.value));
            else if (f.key == "rs2")
                inst.rs2 = static_cast<RegIdx>(parseInt(f.value));
            else if (f.key == "pd")
                inst.pd = static_cast<PredIdx>(parseInt(f.value));
            else if (f.key == "pd2")
                inst.pd2 = static_cast<PredIdx>(parseInt(f.value));
            else if (f.key == "ps")
                inst.ps = static_cast<PredIdx>(parseInt(f.value));
            else if (f.key == "ps2")
                inst.ps2 = static_cast<PredIdx>(parseInt(f.value));
            else if (f.key == "imm")
                inst.imm = parseInt(f.value);
            else if (f.key == "tgt")
                inst.target = parseTarget(f.value);
            else if (f.key == "wish")
                inst.wish = parseWish(f.value);
            else if (f.key == "unc")
                inst.unc = parseInt(f.value) != 0;
            else
                fail("unknown instruction field '" + f.key + "'");
        }
        fn_.block(cur_).insts.push_back(inst);
    }

    void
    parseTermLine(const std::vector<std::string> &toks)
    {
        if (!haveCur_)
            fail("terminator outside a block");
        if (toks.size() < 2)
            fail("term needs a kind");
        Terminator t;
        const std::string &kind = toks[1];
        if (kind == "fall")
            t.kind = TermKind::Fallthrough;
        else if (kind == "jump")
            t.kind = TermKind::Jump;
        else if (kind == "condbr")
            t.kind = TermKind::CondBr;
        else if (kind == "indirect")
            t.kind = TermKind::Indirect;
        else if (kind == "halt")
            t.kind = TermKind::Halt;
        else
            fail("unknown terminator kind '" + kind + "'");
        for (const Field &f : parseFields(toks, 2)) {
            if (f.key == "cond")
                t.cond = static_cast<PredIdx>(parseInt(f.value));
            else if (f.key == "condc")
                t.condC = static_cast<PredIdx>(parseInt(f.value));
            else if (f.key == "taken")
                t.taken = static_cast<BlockId>(parseInt(f.value));
            else if (f.key == "next")
                t.next = static_cast<BlockId>(parseInt(f.value));
            else if (f.key == "reg")
                t.reg = static_cast<RegIdx>(parseInt(f.value));
            else if (f.key == "wish")
                t.wish = parseWish(f.value);
            else
                fail("unknown terminator field '" + f.key + "'");
        }
        // Touch forward-referenced successors so ids exist; mentioned_
        // still governs liveness (an id used only as a target without
        // its own "block" line is an error caught by validate()).
        fn_.block(cur_).term = t;
    }

    void
    finishBlocks()
    {
        if (!haveCur_)
            wisc_fatal("ir_text: no blocks in input");
        // Successor ids may exceed the highest "block" line; create them
        // (dead) so validate() reports a bad target, not an assert.
        for (BlockId b = 0; b < fn_.numBlocks(); ++b) {
            for (BlockId s : fn_.successors(b)) {
                if (s != kNoBlock)
                    while (fn_.numBlocks() <= s)
                        fn_.newBlock();
            }
        }
        for (BlockId b = 0; b < fn_.numBlocks(); ++b)
            fn_.block(b).dead =
                b >= mentioned_.size() || !mentioned_[b];
        if (haveEntry_)
            fn_.setEntry(entry_);
    }

    std::istringstream in_;
    IrFunction fn_;
    std::vector<bool> mentioned_;
    BlockId cur_ = 0;
    BlockId entry_ = 0;
    bool haveCur_ = false;
    bool haveEntry_ = false;
    unsigned lineNo_ = 0;
};

} // namespace

std::string
irToText(const IrFunction &fn)
{
    std::ostringstream os;
    os << "wisc-ir 1\n";
    os << "entry " << fn.entry() << "\n";
    if (fn.maxUserPred() != 0)
        os << "maxuserpred " << unsigned(fn.maxUserPred()) << "\n";
    for (const DataSegment &seg : fn.data()) {
        os << "data 0x" << std::hex << seg.base << std::dec;
        for (Word w : seg.words)
            os << ' ' << w;
        os << '\n';
    }
    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        const IrBlock &blk = fn.block(b);
        if (blk.dead)
            continue;
        os << "block " << b;
        if (!blk.name.empty())
            os << " name \"" << blk.name << "\"";
        if (blk.guard != 0)
            os << " guard " << unsigned(blk.guard);
        os << '\n';
        for (const Instruction &inst : blk.insts)
            writeInst(os, inst);
        const Terminator &t = blk.term;
        os << "  term " << termKindName(t.kind);
        switch (t.kind) {
          case TermKind::Fallthrough:
            os << " next=" << t.next;
            break;
          case TermKind::Jump:
            os << " taken=" << t.taken;
            break;
          case TermKind::CondBr:
            os << " cond=" << unsigned(t.cond);
            if (t.condC != 0)
                os << " condc=" << unsigned(t.condC);
            os << " taken=" << t.taken << " next=" << t.next;
            if (t.wish != WishKind::None)
                os << " wish=" << wishName(t.wish);
            break;
          case TermKind::Indirect:
            os << " reg=" << unsigned(t.reg);
            break;
          case TermKind::Halt:
            break;
        }
        os << '\n';
    }
    return os.str();
}

IrFunction
irFromText(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace wisc
