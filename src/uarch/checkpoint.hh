/**
 * @file
 * Warm-state checkpoint for sampled simulation (DESIGN.md: sampling).
 *
 * A CoreCheckpoint captures everything a detailed window needs to
 * resume simulation at a *drained* boundary — the reorder buffer and
 * fetch queue are empty, so no in-flight µop state exists and the
 * checkpoint reduces to:
 *
 *   - architectural state (registers, predicates, memory pages);
 *   - µarchitectural warm state: cache tags/LRU across all three
 *     levels plus the outstanding-fill ledger, direction predictor,
 *     confidence estimator, BTB, return address stack, indirect target
 *     cache, and the wish-engine mode machine / predicate buffer /
 *     loop-trip tables;
 *   - a handful of core scalars: cycle clock, retired-µop count, fetch
 *     PC/halt/stall, the seq/uid allocators (sequence numbers must
 *     stay monotone across the boundary — retirement ordering and the
 *     attribution flush shadow compare them), and optionally the
 *     attribution engine's cross-cycle flush-shadow state.
 *
 * Producer tables, store indices, completion events, and wait chains
 * are deliberately absent: at a drained boundary every allocated seq
 * number is retired, and the core treats any stale producer entry
 * whose µop is no longer in the ROB as "complete" — the tables are
 * inert and are simply reset on restore.
 *
 * Every checkpoint is written by Core::checkpoint(): of a detailed core
 * drained by advance(), or of a core that only fast-forwarded
 * (uarch/fastfwd.hh), whose clock and allocators are still at reset.
 * Core::ioWarmState is the one walk over the structures: checkpoint()
 * runs it over a StateIO writer and beginRun(prog, ckpt) over a reader
 * (common/bytes.hh), and each structure's own io() is its only
 * statement of what it keeps.
 *
 * The blob is an in-process byte buffer, never persisted to disk, so
 * tables go in raw; fingerprints guard against restoring into a core
 * with a different machine configuration or program image, and the
 * restore asserts that the walk consumed every byte without latching.
 */

#ifndef WISC_UARCH_CHECKPOINT_HH_
#define WISC_UARCH_CHECKPOINT_HH_

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace wisc {

struct CoreCheckpoint
{
    /** Cycle clock at the boundary. The memory system's fill ledger
     *  stores absolute ready cycles, so the clock restores with it. */
    Cycle now = 0;
    /** Retired µops up to the boundary (whole-run coordinate). */
    std::uint64_t retiredUops = 0;

    // Front-end scalars.
    std::uint32_t fetchPc = 0;
    bool fetchHalted = false;
    Cycle fetchStallUntil = 0;

    // Allocators (never reset across the boundary; see file comment).
    SeqNum nextSeq = 1;
    std::uint64_t nextUid = 1;

    /** The walked substrate (Core::ioWarmState): ArchState,
     *  MemorySystem, predictor, confidence, BTB, RAS, ITC, wish engine,
     *  the merge-point table (MergePoint machines only), and the
     *  attribution shadow (when hasAttribShadow). */
    std::string bytes;
    /** The attribution flush-shadow section is present (never in a
     *  fast-forward checkpoint). */
    bool hasAttribShadow = false;

    /** Guards: a checkpoint only restores into a core built from
     *  fingerprint-identical SimParams running the same program. */
    std::uint64_t paramsFingerprint = 0;
    std::uint64_t progFingerprint = 0;
};

} // namespace wisc

#endif // WISC_UARCH_CHECKPOINT_HH_
