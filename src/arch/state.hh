/**
 * @file
 * Architectural state: integer registers, predicate registers, and a
 * sparse paged byte-addressable memory.
 *
 * The same state object backs both the reference functional emulator and
 * the timing core's execute-at-fetch model (with UndoLog-based rollback),
 * so the two are semantically identical by construction.
 */

#ifndef WISC_ARCH_STATE_HH_
#define WISC_ARCH_STATE_HH_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace wisc {

/** Sparse paged memory; unwritten bytes read as zero. */
class Memory
{
  public:
    static constexpr Addr kPageBits = 12;
    static constexpr Addr kPageSize = Addr(1) << kPageBits;

    std::uint8_t readByte(Addr a) const;
    void writeByte(Addr a, std::uint8_t v);

    /** Little-endian 64-bit word access; may straddle pages. */
    UWord readWord(Addr a) const;
    void writeWord(Addr a, UWord v);

    /** Order-independent content hash of all touched pages
     *  (all-zero pages hash the same as untouched ones). */
    std::uint64_t fingerprint() const;

    /** Number of distinct pages ever written. */
    std::size_t numPages() const { return pages_.size(); }

    /** Base addresses of every page ever written, ascending. Lets a
     *  state-diff walk memory word-by-word (arch/state_diff.hh) without
     *  exposing page internals; untouched addresses read as zero. */
    std::vector<Addr> touchedPages() const;

    /** Walk every touched page (checkpointing); reading replaces the
     *  entire contents. */
    void io(StateIO &io);

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    const Page *find(Addr a) const;
    Page &findOrCreate(Addr a);

    std::map<Addr, std::unique_ptr<Page>> pages_;
};

/** Full architectural state. */
class ArchState
{
  public:
    /** Zero registers and predicates, an empty memory, and a
     *  convenient default stack pointer, far from code and data. */
    ArchState() { regs_[kRegSp] = 0x7ff00000; }

    /** Seed memory from a program's data segments. */
    void loadData(const Program &prog);

    Word
    readReg(RegIdx r) const
    {
        return r == kRegZero ? 0 : regs_[r];
    }

    void
    writeReg(RegIdx r, Word v)
    {
        if (r != kRegZero)
            regs_[r] = v;
    }

    bool
    readPred(PredIdx p) const
    {
        return p == 0 ? true : preds_[p];
    }

    void
    writePred(PredIdx p, bool v)
    {
        if (p != 0)
            preds_[p] = v;
    }

    Memory &mem() { return mem_; }
    const Memory &mem() const { return mem_; }

    /** Walk registers, predicates, and memory (checkpointing). */
    void io(StateIO &io);

  private:
    std::array<Word, kNumIntRegs> regs_{};
    std::array<bool, kNumPredRegs> preds_{};
    Memory mem_;
};

/**
 * Log of architectural side effects, enabling precise rollback of
 * speculatively executed instructions. Entries are undone newest-first
 * and committed oldest-first, so the log is one flat ring: a commit
 * only moves its start. The ring starts empty and doubles when full,
 * so it stays within twice the most entries ever live at once — for
 * the timing core, the undo records of its in-flight window.
 */
class UndoLog
{
  public:
    /** Absolute position marker: the count of entries ever recorded at
     *  some point in time. Remains valid across commits. */
    using Mark = std::uint64_t;

    Mark mark() const { return end_; }

    void
    recordReg(RegIdx r, Word old)
    {
        push({Kind::Reg, r, 0, static_cast<UWord>(old)});
    }

    void
    recordPred(PredIdx p, bool old)
    {
        push({Kind::Pred, p, 0, old ? 1u : 0u});
    }

    void
    recordMem(Addr a, std::uint8_t size, UWord old)
    {
        push({Kind::Mem, size, a, old});
    }

    /** Undo every effect recorded after the mark. */
    void rollbackTo(Mark m, ArchState &state);

    /** Drop entries older than the mark (they can no longer be undone).
     *  Called at retirement to bound memory. */
    void commitTo(Mark m);

    /** Live entries: recorded, and neither committed nor rolled back. */
    std::size_t size() const { return static_cast<std::size_t>(end_ - base_); }

  private:
    enum class Kind : std::uint8_t { Reg, Pred, Mem };

    struct Entry
    {
        Kind kind;
        std::uint8_t idxOrSize;
        Addr addr;
        UWord old;
    };

    void
    push(const Entry &e)
    {
        if (size() == entries_.size())
            grow();
        entries_[end_ & (entries_.size() - 1)] = e;
        ++end_;
    }

    void grow();

    /** Live entries are the absolute positions [base_, end_); position
     *  p lives at entries_[p % entries_.size()], a power of two. */
    std::vector<Entry> entries_;
    Mark base_ = 0;
    Mark end_ = 0;
};

} // namespace wisc

#endif // WISC_ARCH_STATE_HH_
