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
 *     levels plus the fill ledger (only the fills a load has not yet
 *     dropped as complete), direction predictor, confidence estimator,
 *     BTB, return address stack, indirect target cache, and the
 *     wish-engine mode machine / predicate buffer / loop-trip tables;
 *   - the merge-point table on MergePoint machines, and the
 *     attribution engine's cross-cycle flush-shadow state on machines
 *     that attach the engine;
 *   - a handful of core scalars, last: cycle clock, retired-µop count,
 *     fetch PC/halt/stall, and the seq/uid allocators (sequence
 *     numbers must stay monotone across the boundary — retirement
 *     ordering and the attribution flush shadow compare them).
 *
 * Producer tables, the store queue, completion events, and wait chains
 * are deliberately absent: at a drained boundary every allocated seq
 * number is retired, and the core treats any producer entry whose µop
 * is no longer in the ROB as complete, so a restored core starts them
 * empty.
 *
 * Every checkpoint is written by Core::checkpoint(): of a detailed core
 * drained by advance(), or of a core that only fast-forwarded
 * (uarch/fastfwd.hh), whose clock and allocators are still at reset.
 * Core::ioWarmState is the one walk over the structures: checkpoint()
 * runs it over a StateIO writer and the restoring Core constructor over
 * a reader (common/bytes.hh), and each structure's own io() is its
 * only statement of what it keeps. Nothing else carries state into a
 * restored core: it loads no data and warms no text image first.
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

namespace wisc {

struct CoreCheckpoint
{
    /** The walked state (Core::ioWarmState). */
    std::string bytes;

    /** Guards: a checkpoint only restores into a core built from
     *  fingerprint-identical SimParams running the same program. */
    std::uint64_t paramsFingerprint = 0;
    std::uint64_t progFingerprint = 0;
};

} // namespace wisc

#endif // WISC_UARCH_CHECKPOINT_HH_
