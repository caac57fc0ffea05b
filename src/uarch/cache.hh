/**
 * @file
 * Timing-only set-associative cache with LRU replacement, and the
 * two-level hierarchy (L1I / L1D over a unified L2 over memory) of
 * Table 2. Caches track tags only — data correctness lives in the
 * architectural memory — so speculative (wrong-path) accesses can probe
 * and allocate freely, which models wrong-path cache pollution.
 */

#ifndef WISC_UARCH_CACHE_HH_
#define WISC_UARCH_CACHE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "uarch/params.hh"

namespace wisc {

/** One set-associative tag array with true-LRU replacement. */
class Cache
{
  public:
    Cache(const CacheParams &params, const std::string &name,
          StatSet &stats);

    /**
     * Probe-and-allocate: returns true on hit. On miss the line is
     * allocated (victim evicted by LRU). The caller charges latency.
     */
    bool access(Addr addr);

    /** Probe without allocating or touching LRU state. */
    bool probe(Addr addr) const;

    /** Walk tag/LRU state for a warm-state checkpoint. */
    void io(StateIO &io);

    std::uint32_t lineBytes() const { return params_.lineBytes; }
    std::uint32_t hitLatency() const { return params_.hitLatency; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    Addr lineAddr(Addr a) const { return a / params_.lineBytes; }
    std::size_t setOf(Addr line) const { return line % numSets_; }

    CacheParams params_;
    std::size_t numSets_;
    std::vector<Line> lines_; ///< numSets_ x ways, row-major
    std::uint64_t useClock_ = 0;

    Counter *hits_;
    Counter *misses_;
};

/**
 * The memory hierarchy: returns the access latency for an address at
 * each entry point, updating cache state along the way.
 */
class MemorySystem
{
  public:
    MemorySystem(const SimParams &params, StatSet &stats);

    /** Instruction fetch: L1I -> L2 -> memory. */
    unsigned fetchAccess(Addr addr);

    /** Data load: L1D -> L2 -> memory. 'now' lets a second access to a
     *  line whose fill is still in flight pay the remaining fill time
     *  instead of hitting instantly. */
    unsigned loadAccess(Addr addr, Cycle now);

    /** Tag-only data access: L1D, then L2 on a miss, with no latency
     *  and no fill bookkeeping. A store at retirement uses it (the
     *  store buffer absorbs its latency), and so do the sampled
     *  fast-forward's loads and stores: the functional engine has no
     *  cycle clock, and a checkpoint taken from it starts the window
     *  with no fills in flight. */
    void tagAccess(Addr addr);

    /** Would a load of this address hit in the L1D right now? */
    bool loadWouldHitL1(Addr addr) const;

    /** Pre-touch a text range into L1I/L2 (warm instruction image). */
    void warmText(Addr base, Addr bytes);

    /** Walk tag/LRU state of all three caches plus the fill ledger
     *  (ready cycles are absolute, so a restore must also restore the
     *  cycle clock they were recorded under). */
    void io(StateIO &io);

    unsigned l1dHitLatency() const;

  private:
    SimParams params_;
    Cache il1_;
    Cache dl1_;
    Cache l2_;
    /** A data line being filled and the cycle its fill completes. */
    struct Fill
    {
        Addr line;
        Cycle ready;
    };
    /** The fill ledger: the fills not yet dropped. A load drops the
     *  completed ones before it looks its line up, so the ledger holds
     *  only fills outstanding at the last load. Each is a primary miss
     *  that passed the core's MSHR check, so it holds no more than
     *  SimParams::maxOutstandingMisses, plus any that a restored
     *  checkpoint carried in. */
    std::vector<Fill> fills_;
};

} // namespace wisc

#endif // WISC_UARCH_CACHE_HH_
