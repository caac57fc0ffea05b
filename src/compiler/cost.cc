#include "compiler/cost.hh"

#include <algorithm>
#include <map>

#include "common/log.hh"

namespace wisc {

double
instLatency(const Instruction &inst)
{
    switch (inst.instrClass()) {
      case InstrClass::IntAlu:  return 1.0;
      case InstrClass::IntMul:  return 3.0;
      case InstrClass::IntDiv:  return 12.0;
      case InstrClass::Load:    return 2.0;  // assumes an L1 hit
      case InstrClass::Store:   return 1.0;
      case InstrClass::Branch:  return 1.0;
      case InstrClass::Other:   return 1.0;
    }
    return 1.0;
}

double
estimateSequenceCycles(const std::vector<Instruction> &insts,
                       const CostParams &params)
{
    // Dependence-height over registers and predicates: ready[x] is the
    // cycle at which resource x becomes available.
    std::map<int, double> regReady;  // key: register index
    std::map<int, double> predReady; // key: predicate index
    double height = 0.0;
    double totalLatency = 0.0;

    auto regTime = [&](RegIdx r) {
        if (r == kRegZero)
            return 0.0;
        auto it = regReady.find(r);
        return it == regReady.end() ? 0.0 : it->second;
    };
    auto predTime = [&](PredIdx p) {
        if (p == 0)
            return 0.0;
        auto it = predReady.find(p);
        return it == predReady.end() ? 0.0 : it->second;
    };

    for (const Instruction &inst : insts) {
        double start = predTime(inst.qp);
        if (inst.readsRs1())
            start = std::max(start, regTime(inst.rs1));
        if (inst.readsRs2())
            start = std::max(start, regTime(inst.rs2));
        if (isPredOp(inst.op))
            start = std::max(start, predTime(inst.ps));
        if (opForm(inst.op) == OpForm::PPP)
            start = std::max(start, predTime(inst.ps2));

        double lat = instLatency(inst);
        totalLatency += lat;
        double done = start + lat;

        if (inst.writesReg())
            regReady[inst.rd] = done;
        if (inst.writesPred()) {
            if (inst.pd != kPredNone)
                predReady[inst.pd] = done;
            if (inst.pd2 != kPredNone)
                predReady[inst.pd2] = done;
        }
        height = std::max(height, done);
    }

    return std::max(height, totalLatency / params.issueWidth);
}

namespace {

/**
 * Expected cycles of the region code conditioned on the first edge out of
 * the head. Enumerates all paths from 'start' to 'join' (regions are
 * small DAGs), weighting block costs by path probabilities.
 */
double
expectedPathCycles(const IrFunction &fn, BlockId start, BlockId join,
                   const BranchStats &stats, const CostParams &params,
                   int depth = 0)
{
    if (start == join || depth > 16)
        return 0.0;

    const IrBlock &blk = fn.block(start);
    double own = estimateSequenceCycles(blk.insts, params);
    const Terminator &t = blk.term;

    switch (t.kind) {
      case TermKind::Fallthrough:
        return own + expectedPathCycles(fn, t.next, join, stats, params,
                                        depth + 1);
      case TermKind::Jump:
        return own + expectedPathCycles(fn, t.taken, join, stats, params,
                                        depth + 1);
      case TermKind::CondBr: {
        double pt = stats.taken(start);
        double ct = expectedPathCycles(fn, t.taken, join, stats, params,
                                       depth + 1);
        double cn = expectedPathCycles(fn, t.next, join, stats, params,
                                       depth + 1);
        // Inner branches carry their own misprediction exposure.
        return own + 1.0 + pt * ct + (1.0 - pt) * cn +
               params.mispredictPenalty * stats.mispredict(start);
      }
      case TermKind::Indirect:
      case TermKind::Halt:
        return own;
    }
    return own;
}

} // namespace

bool
predicationProfitable(const IrFunction &fn, BlockId head, BlockId join,
                      const std::vector<BlockId> &region,
                      const BranchStats &stats, const CostParams &params)
{
    const Terminator &t = fn.block(head).term;
    wisc_assert(t.kind == TermKind::CondBr,
                "cost model needs a conditional head");

    // Equation 4.1: branchy execution.
    double pTaken = stats.taken(head);
    double execT = expectedPathCycles(fn, t.taken, join, stats, params);
    double execN = expectedPathCycles(fn, t.next, join, stats, params);
    double execNormal = execT * pTaken + execN * (1.0 - pTaken) +
                        params.mispredictPenalty * stats.mispredict(head);

    // Equation 4.2: predicated execution runs every region instruction.
    std::vector<Instruction> merged;
    for (BlockId b : region) {
        const IrBlock &blk = fn.block(b);
        merged.insert(merged.end(), blk.insts.begin(), blk.insts.end());
    }
    double execPred = estimateSequenceCycles(merged, params);

    // Equation 4.3.
    return execPred < execNormal;
}

} // namespace wisc
