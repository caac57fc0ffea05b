/**
 * @file
 * A probe sink that hashes every event the core emits, in emission
 * order: its kind, then each field of its probe (uid, pc, cycle and the
 * rest). Two runs with equal digests emitted the same probe stream, so
 * a core rewrite that keeps every golden row's digest changed nothing
 * any observer can see. FetchProbe::inst is not hashed: it points at
 * the Program image's code_[pc], and pc is.
 */

#ifndef WISC_TESTS_PROBE_DIGEST_HH_
#define WISC_TESTS_PROBE_DIGEST_HH_

#include <cstdint>

#include "common/hash.hh"
#include "uarch/probe.hh"

namespace wisc {

class ProbeDigest : public ProbeSink
{
  public:
    std::uint64_t digest() const { return h_.digest(); }

    void
    onFetch(const FetchProbe &p) override
    {
        h_.u8(0);
        h_.u64(p.uid);
        h_.u32(p.pc);
        h_.u64(p.cycle);
    }

    void onRename(const StageProbe &p) override { stage(1, p); }
    void onIssue(const StageProbe &p) override { stage(2, p); }
    void onComplete(const StageProbe &p) override { stage(3, p); }

    void
    onRetire(const RetireProbe &p) override
    {
        h_.u8(4);
        h_.u64(p.uid);
        h_.u64(p.seq);
        h_.u32(p.pc);
        h_.u64(p.cycle);
        h_.b(p.predFalse);
        h_.b(p.isCondBr);
        h_.b(p.mispredicted);
        h_.b(p.confValid);
        h_.b(p.highConf);
        h_.u8(static_cast<std::uint8_t>(p.wishKind));
    }

    void
    onSquash(const SquashProbe &p) override
    {
        h_.u8(5);
        h_.u64(p.uid);
    }

    void
    onFlush(const FlushProbe &p) override
    {
        h_.u8(6);
        h_.u32(p.pc);
        h_.u64(p.seq);
        h_.u64(p.cycle);
        h_.u8(static_cast<std::uint8_t>(p.cause));
    }

    void
    onCycle(const CycleProbe &p) override
    {
        h_.u8(7);
        h_.u64(p.cycle);
        h_.b(p.robEmpty);
        h_.b(p.renameBlocked);
        h_.b(p.headLoadMiss);
        h_.b(p.headPredWait);
    }

  private:
    void
    stage(std::uint8_t kind, const StageProbe &p)
    {
        h_.u8(kind);
        h_.u64(p.uid);
        h_.u64(p.cycle);
    }

    Hasher h_;
};

} // namespace wisc

#endif // WISC_TESTS_PROBE_DIGEST_HH_
