#!/usr/bin/env bash
# Build and run the wisc host-time benchmark (bench/perf/README.md).
#
#   bench/perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last line of stdout is its JSON result
#   bench/perf/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#                     [--json PATH]
#       every workload in turn, each in its own process; prints
#       `workload metric value unit` rows, and --json merges the
#       per-workload result documents into PATH
#
# Configures and builds build-perf/ at the repository root first, so it
# needs only the source tree. Exits non-zero if the build fails or any
# workload reports a failed op.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-perf"

workload=""
json=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
        --json) json="${2:?--json needs a value}"; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
{
    [ -f "$build/CMakeCache.txt" ] || cmake -S "$here" -B "$build"
    cmake --build "$build" -j "$jobs"
} >&2

# Provenance: only when this tree is itself a git work tree.
commit=unknown
dirty=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
    commit="$(git -C "$root" rev-parse HEAD)"
    if [ -n "$(git -C "$root" status --porcelain)" ]; then dirty=1; else dirty=0; fi
fi
perf=("$build/wisc_perf" --commit "$commit" --dirty "$dirty")

# A child, not exec: exec would carry this shell's high-water RSS into
# the benchmark's peak_rss_mb.
if [ -n "$workload" ]; then
    "${perf[@]}" --workload "$workload" ${json:+--json "$json"} \
        ${args[@]+"${args[@]}"}
    exit
fi

tmp="$build/run-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
status=0
for w in detail sampled sweep fuzz; do
    "${perf[@]}" --workload "$w" --json "$tmp/$w.json" \
        ${args[@]+"${args[@]}"} > "$tmp/$w.out" || status=1
    grep -v '^{' "$tmp/$w.out" || true
done

if [ -n "$json" ]; then
    {
        printf '{"workloads": {'
        sep=""
        for w in detail sampled sweep fuzz; do
            [ -s "$tmp/$w.json" ] || continue
            printf '%s\n"%s": ' "$sep" "$w"
            cat "$tmp/$w.json"
            sep=","
        done
        printf '}}\n'
    } > "$json"
fi
exit "$status"
