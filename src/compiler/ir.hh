/**
 * @file
 * The compiler's intermediate representation: a control-flow graph of
 * basic blocks over WISC instructions.
 *
 * Straight-line instructions reuse the ISA's Instruction struct (their
 * 'target' field is unused); control flow lives exclusively in each
 * block's Terminator. Conditional terminators name the predicate register
 * holding the branch condition *and* its complement, both of which must be
 * written by a compare in the same block — this is what lets if-conversion
 * and wish-branch generation guard either arm of a hammock.
 */

#ifndef WISC_COMPILER_IR_HH_
#define WISC_COMPILER_IR_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace wisc {

using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = 0xffffffff;

/** How a basic block ends. */
enum class TermKind : std::uint8_t
{
    Fallthrough, ///< continue to 'next'
    Jump,        ///< unconditional to 'taken'
    CondBr,      ///< to 'taken' iff predicate 'cond', else 'next'
    Indirect,    ///< computed jump through register 'reg'
    Halt,        ///< program end
};

/** Basic-block terminator. */
struct Terminator
{
    TermKind kind = TermKind::Halt;
    PredIdx cond = 0;   ///< branch-condition predicate (CondBr)
    PredIdx condC = 0;  ///< its complement (CondBr); 0 if unavailable
    BlockId taken = kNoBlock; ///< CondBr taken target / Jump target
    BlockId next = kNoBlock;  ///< fallthrough successor
    RegIdx reg = 0;     ///< Indirect: register holding the target address
    WishKind wish = WishKind::None; ///< set by wish-branch generation
};

/** One IR basic block. */
struct IrBlock
{
    std::string name;
    std::vector<Instruction> insts;
    Terminator term;
    bool dead = false; ///< tombstone set when merged away by a pass

    /** Static guard predicate assigned by if-conversion (0 = none). */
    PredIdx guard = 0;
};

/**
 * A single-function IR unit: the CFG plus initial data segments.
 *
 * Blocks are referenced by stable BlockId (index into blocks()); passes
 * that remove blocks mark them dead rather than erasing.
 */
class IrFunction
{
  public:
    /** Create a new empty block; returns its id. */
    BlockId newBlock(const std::string &name = "");

    IrBlock &block(BlockId id);
    const IrBlock &block(BlockId id) const;

    std::vector<IrBlock> &blocks() { return blocks_; }
    const std::vector<IrBlock> &blocks() const { return blocks_; }
    std::size_t numBlocks() const { return blocks_.size(); }

    BlockId entry() const { return entry_; }
    void setEntry(BlockId e) { entry_ = e; }

    void addData(Addr base, std::vector<Word> words);
    const std::vector<DataSegment> &data() const { return data_; }

    /** Successor block ids of a block (0, 1, or 2 entries). */
    std::vector<BlockId> successors(BlockId id) const;

    /** Predecessor lists for all live blocks. */
    std::vector<std::vector<BlockId>> predecessors() const;

    /**
     * Allocate a fresh predicate register for pass-generated guards.
     * Allocation grows down from p15 and never reuses, so guards from
     * different regions cannot clobber each other. Fatal when the
     * function runs out (regions are required to be small).
     */
    PredIdx allocPred();

    /** Highest predicate index the builder used (fresh allocation must
     *  stay above this). */
    void setMaxUserPred(PredIdx p);

    /** Highest user predicate recorded so far (serialized by the IR
     *  text round-trip so a reparsed function compiles identically). */
    PredIdx maxUserPred() const { return maxUserPred_; }

    /** Structural sanity checks; fatal on violation. */
    void validate() const;

    /**
     * Lower the live blocks, in id order, to an executable Program.
     * Fallthrough edges to non-adjacent blocks become explicit jumps.
     *
     * @param branchOfInst if non-null, receives (program instruction
     *        index -> source BlockId) for every lowered conditional
     *        branch, used to map run-time profiles back onto the IR.
     */
    Program lower(std::map<std::uint32_t, BlockId> *branchOfInst =
                      nullptr) const;

  private:
    std::vector<IrBlock> blocks_;
    std::vector<DataSegment> data_;
    BlockId entry_ = 0;
    PredIdx nextFresh_ = 15;
    PredIdx maxUserPred_ = 0;
};

} // namespace wisc

#endif // WISC_COMPILER_IR_HH_
