#!/bin/sh
# Two `run_matrix --smoke --shard I/2` processes run at once against one
# --cache directory. Passes when
#   - both shards exit 0,
#   - a follow-up unsharded run replays everything (zero simulations),
#   - the shared directory is byte-identical to the one a single
#     unsharded process leaves.
#
# Usage: shard_smoke.sh RUN_MATRIX WORK_DIR
set -eu

RUN_MATRIX=$1
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"

fail() {
    echo "shard_smoke: $1" >&2
    [ -z "${2:-}" ] || cat "$2" >&2
    exit 1
}

"$RUN_MATRIX" --smoke --shard 1/2 --cache "$WORK/shared" \
    > "$WORK/shard1.log" 2>&1 &
pid1=$!
"$RUN_MATRIX" --smoke --shard 2/2 --cache "$WORK/shared" \
    > "$WORK/shard2.log" 2>&1 &
pid2=$!
wait "$pid1" || fail "shard 1/2 failed" "$WORK/shard1.log"
wait "$pid2" || fail "shard 2/2 failed" "$WORK/shard2.log"

"$RUN_MATRIX" --smoke --cache "$WORK/shared" > "$WORK/replay.log" 2>&1 ||
    fail "replay run failed" "$WORK/replay.log"
grep -q '^matrix: .* 0 simulations,' "$WORK/replay.log" ||
    fail "replay over the shared cache simulated something" \
        "$WORK/replay.log"

"$RUN_MATRIX" --smoke --cache "$WORK/single" > "$WORK/single.log" 2>&1 ||
    fail "single-process run failed" "$WORK/single.log"
diff -r "$WORK/shared" "$WORK/single" ||
    fail "sharded cache differs from the single-process cache"

echo "shard_smoke: $(ls "$WORK/single" | wc -l) entries, shared cache" \
    "identical to single-process cache"
