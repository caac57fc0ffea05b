#include "arch/state_diff.hh"

#include <algorithm>
#include <sstream>

namespace wisc {

std::string
StateDiff::describe() const
{
    std::ostringstream os;
    switch (kind) {
      case Kind::None:
        return "states agree";
      case Kind::IntReg:
        os << "r" << reg;
        break;
      case Kind::Memory:
        os << "mem[0x" << std::hex << addr << std::dec << "]";
        break;
    }
    os << ": expected " << static_cast<Word>(expected) << " got "
       << static_cast<Word>(got);
    return os.str();
}

StateDiff
firstStateDiff(const ArchState &expected, const ArchState &got)
{
    StateDiff d;
    for (unsigned r = 0; r < kNumIntRegs; ++r) {
        Word e = expected.readReg(static_cast<RegIdx>(r));
        Word g = got.readReg(static_cast<RegIdx>(r));
        if (e != g) {
            d.kind = StateDiff::Kind::IntReg;
            d.reg = r;
            d.expected = static_cast<UWord>(e);
            d.got = static_cast<UWord>(g);
            return d;
        }
    }

    // Union of touched pages, ascending; a page only one side touched
    // still diffs correctly because untouched addresses read as zero.
    std::vector<Addr> pages = expected.mem().touchedPages();
    std::vector<Addr> other = got.mem().touchedPages();
    pages.insert(pages.end(), other.begin(), other.end());
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

    for (Addr base : pages) {
        for (Addr a = base; a < base + Memory::kPageSize; a += 8) {
            UWord e = expected.mem().readWord(a);
            UWord g = got.mem().readWord(a);
            if (e != g) {
                d.kind = StateDiff::Kind::Memory;
                d.addr = a;
                d.expected = e;
                d.got = g;
                return d;
            }
        }
    }
    return d;
}

} // namespace wisc
