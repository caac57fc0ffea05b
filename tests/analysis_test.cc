/**
 * @file
 * Tests for the CFG analyses: immediate postdominators validated against
 * a brute-force reference on randomly generated CFGs, regionBlocks
 * behavior, acyclicity checks, and the chain-merging simplifier.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "compiler/analysis.hh"
#include "compiler/simplify.hh"

namespace wisc {
namespace {

/** Build a random CFG: each block falls through, jumps forward, or
 *  conditionally branches; the last block halts. */
IrFunction
randomCfg(std::uint64_t seed, unsigned blocks)
{
    Rng rng(seed);
    IrFunction fn;
    for (unsigned i = 0; i < blocks; ++i)
        fn.newBlock();
    fn.setEntry(0);

    for (unsigned i = 0; i < blocks; ++i) {
        Terminator t;
        if (i + 1 == blocks) {
            t.kind = TermKind::Halt;
        } else {
            auto fwd = [&] {
                return static_cast<BlockId>(
                    i + 1 + rng.below(blocks - i - 1));
            };
            switch (rng.below(3)) {
              case 0:
                t.kind = TermKind::Fallthrough;
                t.next = i + 1;
                break;
              case 1:
                t.kind = TermKind::Jump;
                t.taken = fwd();
                break;
              default: {
                t.kind = TermKind::CondBr;
                t.cond = 1;
                t.condC = 2;
                t.taken = fwd();
                t.next = i + 1;
                // The IR requires a defining compare for real passes;
                // analyses don't care, but keep blocks well-formed.
                Instruction cmp;
                cmp.op = Opcode::CmpLtI;
                cmp.pd = 1;
                cmp.pd2 = 2;
                cmp.rs1 = 5;
                fn.block(i).insts.push_back(cmp);
                break;
              }
            }
        }
        fn.block(i).term = t;
    }
    return fn;
}

/** Brute-force postdominator sets via path enumeration on the acyclic
 *  random CFGs above (every path from b must pass through d). */
std::set<BlockId>
brutePostdoms(const IrFunction &fn, BlockId b)
{
    // DFS over all paths from b to Halt; intersect visited sets.
    std::set<BlockId> inter;
    bool first = true;
    std::vector<std::pair<BlockId, std::vector<BlockId>>> stack;
    stack.push_back({b, {b}});
    while (!stack.empty()) {
        auto [cur, path] = stack.back();
        stack.pop_back();
        auto succs = fn.successors(cur);
        if (succs.empty()) {
            std::set<BlockId> s(path.begin(), path.end());
            if (first) {
                inter = s;
                first = false;
            } else {
                std::set<BlockId> out;
                for (BlockId x : inter)
                    if (s.count(x))
                        out.insert(x);
                inter = out;
            }
            continue;
        }
        for (BlockId nxt : succs) {
            auto p = path;
            p.push_back(nxt);
            stack.push_back({nxt, p});
        }
    }
    inter.erase(b);
    return inter;
}

class PostdomProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Seeds, PostdomProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(PostdomProperty, MatchesBruteForce)
{
    IrFunction fn = randomCfg(GetParam(), 10);
    auto ipdom = immediatePostdominators(fn);

    for (BlockId b = 0; b + 1 < fn.numBlocks(); ++b) {
        std::set<BlockId> strict = brutePostdoms(fn, b);
        if (strict.empty()) {
            EXPECT_EQ(ipdom[b], kNoBlock) << "block " << b;
            continue;
        }
        ASSERT_NE(ipdom[b], kNoBlock) << "block " << b;
        EXPECT_TRUE(strict.count(ipdom[b]))
            << "ipdom must be a strict postdominator (block " << b << ")";
        // The immediate postdominator is postdominated by every other
        // strict postdominator of b.
        std::set<BlockId> ofIpdom = brutePostdoms(fn, ipdom[b]);
        for (BlockId d : strict) {
            if (d != ipdom[b]) {
                EXPECT_TRUE(ofIpdom.count(d))
                    << "block " << b << ": " << d
                    << " should postdominate ipdom " << ipdom[b];
            }
        }
    }
}

TEST(RegionBlocksTest, EmptyWhenEdgesGoStraightToJoin)
{
    IrFunction fn;
    BlockId a = fn.newBlock();
    BlockId j = fn.newBlock();
    fn.setEntry(a);
    Instruction cmp;
    cmp.op = Opcode::CmpLtI;
    cmp.pd = 1;
    cmp.pd2 = 2;
    fn.block(a).insts.push_back(cmp);
    Terminator t;
    t.kind = TermKind::CondBr;
    t.cond = 1;
    t.condC = 2;
    t.taken = j;
    t.next = j;
    fn.block(a).term = t;
    fn.block(j).term = Terminator{}; // Halt

    EXPECT_TRUE(regionBlocks(fn, a, j).empty());
}

TEST(IsAcyclicTest, DetectsSelfLoop)
{
    IrFunction fn;
    BlockId a = fn.newBlock();
    BlockId b = fn.newBlock();
    fn.setEntry(a);
    Instruction cmp;
    cmp.op = Opcode::CmpLtI;
    cmp.pd = 1;
    cmp.pd2 = 2;
    fn.block(a).insts.push_back(cmp);
    Terminator t;
    t.kind = TermKind::CondBr;
    t.cond = 1;
    t.condC = 2;
    t.taken = a; // self loop
    t.next = b;
    fn.block(a).term = t;
    fn.block(b).term = Terminator{};

    EXPECT_FALSE(isAcyclic(fn, {a}));
    EXPECT_TRUE(isAcyclic(fn, {b}));
}

TEST(SimplifyTest, MergesForwardChain)
{
    IrFunction fn;
    BlockId a = fn.newBlock();
    BlockId b = fn.newBlock();
    BlockId c = fn.newBlock();
    fn.setEntry(a);
    Instruction li;
    li.op = Opcode::Li;
    li.rd = 5;
    li.imm = 1;
    fn.block(a).insts.push_back(li);
    fn.block(b).insts.push_back(li);
    fn.block(c).insts.push_back(li);

    Terminator ta;
    ta.kind = TermKind::Jump;
    ta.taken = b;
    fn.block(a).term = ta;
    Terminator tb;
    tb.kind = TermKind::Fallthrough;
    tb.next = c;
    fn.block(b).term = tb;
    fn.block(c).term = Terminator{}; // Halt

    EXPECT_EQ(simplifyChains(fn), 2u);
    EXPECT_FALSE(fn.block(a).dead);
    EXPECT_TRUE(fn.block(b).dead);
    EXPECT_TRUE(fn.block(c).dead);
    EXPECT_EQ(fn.block(a).insts.size(), 3u);
    EXPECT_EQ(fn.block(a).term.kind, TermKind::Halt);
}

TEST(SimplifyTest, DoesNotMergeMultiPredecessorTarget)
{
    IrFunction fn;
    BlockId a = fn.newBlock();
    BlockId b = fn.newBlock();
    BlockId j = fn.newBlock();
    fn.setEntry(a);
    Instruction cmp;
    cmp.op = Opcode::CmpLtI;
    cmp.pd = 1;
    cmp.pd2 = 2;
    fn.block(a).insts.push_back(cmp);

    Terminator ta;
    ta.kind = TermKind::CondBr;
    ta.cond = 1;
    ta.condC = 2;
    ta.taken = j;
    ta.next = b;
    fn.block(a).term = ta;
    Terminator tb;
    tb.kind = TermKind::Fallthrough;
    tb.next = j;
    fn.block(b).term = tb;
    fn.block(j).term = Terminator{};

    EXPECT_EQ(simplifyChains(fn), 0u) << "j has two predecessors";
}

TEST(SimplifyTest, DoesNotMergeBackwardEdges)
{
    IrFunction fn;
    BlockId a = fn.newBlock();
    BlockId b = fn.newBlock();
    fn.setEntry(b); // entry is the LATER block
    Terminator tb;
    tb.kind = TermKind::Jump;
    tb.taken = a; // backward jump
    fn.block(b).term = tb;
    fn.block(a).term = Terminator{};

    EXPECT_EQ(simplifyChains(fn), 0u);
}

} // namespace
} // namespace wisc
