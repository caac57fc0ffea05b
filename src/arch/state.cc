#include "arch/state.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace wisc {

const Memory::Page *
Memory::find(Addr a) const
{
    auto it = pages_.find(a >> kPageBits);
    return it == pages_.end() ? nullptr : it->second.get();
}

Memory::Page &
Memory::findOrCreate(Addr a)
{
    auto &slot = pages_[a >> kPageBits];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

std::uint8_t
Memory::readByte(Addr a) const
{
    const Page *p = find(a);
    return p ? (*p)[a & (kPageSize - 1)] : 0;
}

void
Memory::writeByte(Addr a, std::uint8_t v)
{
    findOrCreate(a)[a & (kPageSize - 1)] = v;
}

UWord
Memory::readWord(Addr a) const
{
    // Fast path: the word lies within one page, so a single map lookup
    // serves all eight bytes (the byte loop over a contiguous buffer
    // compiles to one unaligned load). Both functional engines and the
    // timing core's execute-at-fetch path hit this on every Ld.
    const Addr off = a & (kPageSize - 1);
    if (off <= kPageSize - 8) {
        const Page *p = find(a);
        if (!p)
            return 0;
        const std::uint8_t *q = p->data() + off;
        UWord v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<UWord>(q[i]) << (8 * i);
        return v;
    }
    UWord v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<UWord>(readByte(a + i)) << (8 * i);
    return v;
}

void
Memory::writeWord(Addr a, UWord v)
{
    const Addr off = a & (kPageSize - 1);
    if (off <= kPageSize - 8) {
        std::uint8_t *q = findOrCreate(a).data() + off;
        for (unsigned i = 0; i < 8; ++i)
            q[i] = static_cast<std::uint8_t>(v >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < 8; ++i)
        writeByte(a + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
Memory::fingerprint() const
{
    std::uint64_t h = 0;
    for (const auto &kv : pages_) {
        // Skip all-zero pages so that a page that was written and later
        // zeroed hashes identically to one never touched.
        const Page &p = *kv.second;
        bool all_zero = std::all_of(p.begin(), p.end(),
                                    [](std::uint8_t b) { return b == 0; });
        if (all_zero)
            continue;
        std::uint64_t ph = mixHash(kv.first);
        for (std::size_t i = 0; i < kPageSize; i += 8) {
            UWord w = 0;
            for (unsigned b = 0; b < 8; ++b)
                w |= static_cast<UWord>(p[i + b]) << (8 * b);
            if (w)
                ph = mixHash(ph ^ mixHash(w + i));
        }
        h ^= ph;
    }
    return h;
}

void
Memory::io(StateIO &io)
{
    io.map(pages_, [&](Addr &index, std::unique_ptr<Page> &page) {
        io(index);
        if (!page)
            page = std::make_unique<Page>();
        io.bytes(page->data(), kPageSize);
    });
}

std::vector<Addr>
Memory::touchedPages() const
{
    std::vector<Addr> bases;
    bases.reserve(pages_.size());
    for (const auto &kv : pages_)
        bases.push_back(kv.first << kPageBits);
    return bases;
}

void
ArchState::loadData(const Program &prog)
{
    for (const auto &seg : prog.data()) {
        Addr a = seg.base;
        for (Word w : seg.words) {
            mem_.writeWord(a, static_cast<UWord>(w));
            a += 8;
        }
    }
}

void
ArchState::io(StateIO &io)
{
    for (Word &v : regs_)
        io(v);
    for (bool &p : preds_)
        io(p);
    mem_.io(io);
}

void
UndoLog::grow()
{
    const std::size_t capacity = entries_.empty() ? 64 : 2 * entries_.size();
    std::vector<Entry> bigger(capacity);
    for (Mark p = base_; p < end_; ++p)
        bigger[p & (capacity - 1)] = entries_[p & (entries_.size() - 1)];
    entries_.swap(bigger);
}

void
UndoLog::rollbackTo(Mark m, ArchState &state)
{
    wisc_assert(m >= base_, "rolling back committed state");
    wisc_assert(m <= end_, "bad undo mark");
    while (end_ > m) {
        const Entry &e = entries_[--end_ & (entries_.size() - 1)];
        switch (e.kind) {
          case Kind::Reg:
            state.writeReg(e.idxOrSize, static_cast<Word>(e.old));
            break;
          case Kind::Pred:
            state.writePred(e.idxOrSize, e.old != 0);
            break;
          case Kind::Mem:
            if (e.idxOrSize == 1)
                state.mem().writeByte(e.addr,
                                      static_cast<std::uint8_t>(e.old));
            else
                state.mem().writeWord(e.addr, e.old);
            break;
        }
    }
}

void
UndoLog::commitTo(Mark m)
{
    wisc_assert(m <= end_, "bad commit mark");
    base_ = std::max(base_, m);
}

} // namespace wisc
