#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       Build (offline, release), then run one workload in its own process.
#       This is the command BENCHMARK.json registers.
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       Build, run the untraced pass over all four workloads, then the
#       traced pass, printing every metric by name with its unit.
#   benchmark/run.sh --repeat-check [--seed <n>] [--seconds <s>]
#       Build, run two full untraced sets and check that they agree.
#
# Build output goes to $CARGO_TARGET_DIR if set, else benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"

# Two malloc arenas, one per core the harness is sized for. glibc's default
# (eight per core) lets every short-lived quantize or decode thread land in
# a fresh arena: some 50 MB more resident and 25 ms of first-touch page
# faults, at random, which showed as two modes in boundary time and three
# in peak RSS. Same setting for every commit measured.
export MALLOC_ARENA_MAX=2

# Build messages go to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
bin="$target/release/cnr_lifecycle_bench"

for arg in "$@"; do
    if [ "$arg" = "--workload" ] || [ "$arg" = "--repeat-check" ]; then
        exec "$bin" "$@"
    fi
done

workloads=(full_fp32 incr_adaptive4 recover_chain online_wal_lazy)
status=0
for trace in 0 1; do
    for w in "${workloads[@]}"; do
        if [ "$trace" = 0 ]; then echo "### $w: end to end"; else echo "### $w: per layer (traced)"; fi
        # Drop the machine-readable lines; the table above them says the same.
        "$bin" --workload "$w" --trace "$trace" "$@" | grep -v -e '^{' -e '^#sim ' || status=1
    done
done
exit "$status"
