#!/usr/bin/env bash
# A/B of the lifecycle benchmark: a parent revision against the working tree.
#
#   scripts/lifecycle_ab.sh <parent-rev> <workload> <seed> <pairs> [benchmark args...]
#
# Builds the lifecycle benchmark (benchmark/) twice, offline and in release
# mode, each into its own target directory: once from a clean copy of
# <parent-rev> (`git archive`, so the repository's own worktree list is never
# touched) and once from the working tree. Then runs <pairs> pairs of one
# workload at one seed, `MALLOC_ARENA_MAX=2` as benchmark/run.sh sets it, each
# side from its own checkout. The side that goes first alternates from pair to
# pair: a run-order effect as large as the benchmark's bounds has been seen.
# The benchmark args default to `--seconds 20 --trace 0`, the registered run.
#
# Prints every pair, then, per metric of the benchmark's result line (the
# end-to-end metrics; the per-layer ones under `--trace 1`), each side's q1,
# median and q3 and in how many pairs the working tree was lower.
#
# Builds go under $CARGO_TARGET_DIR/lifecycle_ab when it is set, where the next
# call reuses them, else under a temporary directory removed on exit. The
# parent's copy is removed on exit, and benchmark/Cargo.lock, which every build
# of the working tree rewrites, is put back as it was.
set -euo pipefail

if [ "$#" -lt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> <pairs> [benchmark args...]" >&2
    exit 2
fi
rev="$1" workload="$2" seed="$3" pairs="$4"
shift 4
if [ "$#" -eq 0 ]; then
    set -- --seconds 20 --trace 0
fi
case "$pairs" in
    '' | *[!0-9]*) echo "pairs must be a positive integer: $pairs" >&2; exit 2 ;;
esac

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
commit="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    root="$CARGO_TARGET_DIR/lifecycle_ab"
    mkdir -p "$root"
    scratch=""
else
    scratch="$(mktemp -d)"
    root="$scratch"
fi
parent_src="$root/parent-src"
lock="$root/Cargo.lock.saved"
results="$root/results.txt" # pair side metric value
cp "$repo/benchmark/Cargo.lock" "$lock"

cleanup() {
    cp "$lock" "$repo/benchmark/Cargo.lock"
    rm -rf "$parent_src" "$lock" "$results"
    if [ -n "$scratch" ]; then
        rm -rf "$scratch"
    fi
}
trap cleanup EXIT

# The parent's files keep the commit's time as their mtime, so a build under
# the same $CARGO_TARGET_DIR is reused by the next call.
rm -rf "$parent_src"
mkdir -p "$parent_src"
git -C "$repo" archive "$commit" | tar -x -C "$parent_src"

build() { # <source root> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" 1>&2
}
echo "building the parent ($commit) and the working tree" >&2
build "$parent_src" "$root/target-parent"
build "$repo" "$root/target-change"

# One run of <side> ("parent" or "change"): the result line's metrics as
# "name value" lines.
run() {
    local side="$1" src bin line
    shift
    if [ "$side" = parent ]; then
        src="$parent_src" bin="$root/target-parent/release/cnr_lifecycle_bench"
    else
        src="$repo" bin="$root/target-change/release/cnr_lifecycle_bench"
    fi
    line="$(cd "$src" && MALLOC_ARENA_MAX=2 "$bin" --workload "$workload" --seed "$seed" "$@" \
        | grep '^{' | tail -n 1)" || true
    case "$line" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *) echo "warning: $side run not correct: $line" >&2 ;;
    esac
    printf '%s\n' "$line" | grep -o '"[A-Za-z0-9_.]*": {"value": [^,}]*' \
        | sed -e 's/^"//' -e 's/": {"value": / /'
}

: > "$results"
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2 == 1)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$@" | sed "s/^/$p $side /" >> "$results"
    done
    echo "pair $p (${order/ / first, then })"
    awk -v p="$p" '$1 == p { v[$3 " " $2] = $4; if (!($3 in seen)) { seen[$3] = 1; names[n++] = $3 } }
        END { for (i = 0; i < n; i++) printf "  %-34s parent %14.6g  change %14.6g\n",
              names[i], v[names[i] " parent"], v[names[i] " change"] }' "$results"
done

echo
echo "$workload seed $seed, $pairs pairs, $*: q1 / median / q3 per side"
awk '
    function quantile(list, n, q,    a, k, j, x, pos, lo) {
        split(list, a, " ")
        for (k = 2; k <= n; k++) { # insertion sort: a handful of values
            x = a[k] + 0
            for (j = k - 1; j >= 1 && a[j] + 0 > x; j--) a[j + 1] = a[j]
            a[j + 1] = x
        }
        pos = (n - 1) * q + 1
        lo = int(pos)
        return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    {
        key = $3 SUBSEP $2
        vals[key] = vals[key] " " $4
        count[key]++
        pair[$3 SUBSEP $2 SUBSEP $1] = $4
        if (!($3 in seen)) { seen[$3] = 1; names[m++] = $3 }
        if ($1 > last) last = $1
    }
    END {
        printf "  %-34s %-38s %-38s %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "change lower"
        for (i = 0; i < m; i++) {
            name = names[i]
            lower = 0
            for (p = 1; p <= last; p++)
                if (pair[name SUBSEP "change" SUBSEP p] + 0 < pair[name SUBSEP "parent" SUBSEP p] + 0) lower++
            pk = name SUBSEP "parent"; ck = name SUBSEP "change"
            printf "  %-34s %11.5g %11.5g %11.5g    %11.5g %11.5g %11.5g    %d of %d\n", name,
                quantile(vals[pk], count[pk], 0.25), quantile(vals[pk], count[pk], 0.5), quantile(vals[pk], count[pk], 0.75),
                quantile(vals[ck], count[ck], 0.25), quantile(vals[ck], count[ck], 0.5), quantile(vals[ck], count[ck], 0.75),
                lower, last
        }
    }' "$results"
