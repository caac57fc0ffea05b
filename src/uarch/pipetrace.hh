/**
 * @file
 * Pipeline tracing: records the lifecycle of every µop (fetch, rename,
 * issue, complete, retire or squash) and renders a text pipeline
 * diagram — the classic F-R-I-C-W view — for inspection and debugging.
 *
 * PipeTracer is a ProbeSink (uarch/probe.hh): attach it to a Core via
 * addSink(), or pass it to captureRun() (harness/runner.hh). The
 * wisc-run CLI exposes it as --pipeview N.
 */

#ifndef WISC_UARCH_PIPETRACE_HH_
#define WISC_UARCH_PIPETRACE_HH_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"
#include "uarch/probe.hh"

namespace wisc {

/**
 * Lifecycle timestamps of one dynamic µop. Stage fields hold kNoCycle
 * until the stage happens — cycle 0 is a real timestamp (a µop fetched
 * on the first simulated cycle), so absence is marked out-of-band.
 */
struct PipeRecord
{
    std::uint64_t uid = 0;
    std::uint32_t pc = 0;
    std::string disasm;
    Cycle fetch = kNoCycle;
    Cycle rename = kNoCycle;   ///< kNoCycle = never renamed
    Cycle issue = kNoCycle;    ///< kNoCycle = never issued
    Cycle complete = kNoCycle; ///< kNoCycle = never completed
    Cycle retire = kNoCycle;   ///< kNoCycle = never retired
    bool squashed = false;
    bool wrongPath = false; ///< squashed before retirement
    bool predFalse = false; ///< retired as a predicated NOP
    bool mispredicted = false;
};

/**
 * Collects the first 'capacity' µops of the run (later fetches are
 * ignored) and renders them as a timeline.
 */
class PipeTracer : public ProbeSink
{
  public:
    explicit PipeTracer(std::size_t capacity = 4096)
        : capacity_(capacity)
    {
    }

    void onFetch(const FetchProbe &p) override;
    void onRename(const StageProbe &p) override;
    void onIssue(const StageProbe &p) override;
    void onComplete(const StageProbe &p) override;
    void onRetire(const RetireProbe &p) override;
    void onSquash(const SquashProbe &p) override;

    const std::vector<PipeRecord> &records() const { return records_; }

    /**
     * Render records [first, first+count) as a text pipeline diagram:
     * one row per µop, columns are cycles relative to the window start.
     *   F fetch   R rename   I issue   C complete   W retire (writeback)
     *   lowercase row = squashed (wrong path)   ~ = predicated NOP
     */
    void render(std::ostream &os, std::size_t first = 0,
                std::size_t count = 64) const;

  private:
    PipeRecord *find(std::uint64_t uid);

    std::size_t capacity_;
    std::vector<PipeRecord> records_;
};

} // namespace wisc

#endif // WISC_UARCH_PIPETRACE_HH_
