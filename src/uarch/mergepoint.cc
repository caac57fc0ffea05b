#include "uarch/mergepoint.hh"

namespace wisc {

namespace {

std::uint32_t
roundUpPow2(unsigned v)
{
    std::uint32_t p = 1;
    while (p < v && p < (1u << 30))
        p <<= 1;
    return p;
}

} // namespace

MergePointTable::MergePointTable(unsigned entries, unsigned trackUops)
    : table_(roundUpPow2(entries ? entries : 1)),
      mask_(static_cast<std::uint32_t>(table_.size()) - 1),
      trackUops_(trackUops)
{
}

MergePointTable::Entry &
MergePointTable::entryFor(std::uint32_t pc)
{
    return table_[pc & mask_];
}

const MergePointTable::Entry &
MergePointTable::entryFor(std::uint32_t pc) const
{
    return table_[pc & mask_];
}

std::optional<std::uint32_t>
MergePointTable::predict(std::uint32_t pc, unsigned minConf) const
{
    const Entry &e = entryFor(pc);
    if (!e.valid || e.pc != pc)
        return std::nullopt;
    if (e.conf < minConf || e.useful < 0)
        return std::nullopt;
    return e.merge;
}

void
MergePointTable::onRetire(std::uint32_t pc, std::uint32_t nextPc,
                          bool isCondBr, std::uint32_t takenTarget)
{
    if (tracking_) {
        Entry &e = entryFor(trackPc_);
        if (!e.valid || e.pc != trackPc_) {
            tracking_ = false; // entry evicted under us
        } else if (pc == e.merge) {
            // Real control flow reconverged at the estimate.
            ++e.conf;
            tracking_ = false;
        } else if (nextPc > e.merge && nextPc > pc) {
            // A forward jump past the estimate: classic if-then-else
            // shape, where the then-block ends with a jump over the
            // else-block. The jump target is the better merge estimate.
            e.merge = nextPc;
            e.conf = 0;
        } else if (nextPc < trackPc_) {
            // Control flow left the region backwards (loop back edge,
            // return into earlier code): no forward reconvergence.
            tracking_ = false;
        } else if (uopsLeft_ == 0) {
            tracking_ = false; // budget exhausted, abandon the sample
        } else {
            --uopsLeft_;
        }
    }

    // Start tracking forward conditional branches (hammock heads). Only
    // one slot: a new candidate while tracking is ignored, which biases
    // learning toward outer hammocks first — inner ones get their turn
    // once the outer entry confirms.
    if (!tracking_ && isCondBr && takenTarget > pc) {
        Entry &e = entryFor(pc);
        if (!e.valid || e.pc != pc) {
            e.valid = true;
            e.pc = pc;
            e.merge = takenTarget;
            e.conf = 0;
            e.useful = 1;
        }
        tracking_ = true;
        trackPc_ = pc;
        uopsLeft_ = trackUops_;
    }
}

void
MergePointTable::noteOutcome(std::uint32_t pc, bool failed,
                             bool mispredicted)
{
    Entry &e = entryFor(pc);
    if (!e.valid || e.pc != pc)
        return;
    int u = e.useful;
    if (failed) {
        // Region never reached the merge point: either the merge
        // estimate is wrong or the hammock has side exits. Punish hard.
        u -= 2;
    } else if (mispredicted) {
        // Predication saved a pipeline flush: the payoff case.
        u += 2;
    } else {
        // Predictor was right anyway; the region cost off-path µops for
        // nothing. Mild decay so persistently-predictable branches stop
        // triggering.
        u -= 1;
    }
    e.useful = static_cast<std::int8_t>(u < -8 ? -8 : (u > 7 ? 7 : u));
}

void
MergePointTable::reset()
{
    for (Entry &e : table_)
        e = Entry{};
    tracking_ = false;
    trackPc_ = 0;
    uopsLeft_ = 0;
}

void
MergePointTable::io(StateIO &io)
{
    io.table(table_);
    io(tracking_, trackPc_, uopsLeft_);
}

} // namespace wisc
