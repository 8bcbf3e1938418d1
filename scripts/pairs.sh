#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the evidence a
# timing claim needs (ROADMAP house rule: >= 10 pairs run back to back on
# one host, plus a seed not used while writing the change).
#
#   scripts/pairs.sh <parent-rev> <workload> [--pairs 10] [--seed 42] [--seconds 15]
#
# Builds the benchmark twice, each side with its own CARGO_TARGET_DIR under
# target/pairs/: the committed tree of <parent-rev> (exported with
# `git archive` to target/pairs/src-<sha>/) and the working tree as it
# stands, uncommitted edits included. Then runs `pairs` pairs of untraced
# runs (`--trace 0`), alternating which side goes first, and prints per
# end-to-end metric of BENCHMARK.json:
#
#   parent / change   median [q1 - q3] over the runs of that side
#   delta             change median against parent median, in percent
#   wins              pairs the change won, in the metric's direction
#   verdict           exact       every run of both sides printed the same
#                                 value (the simulated metrics must)
#                     unresolved  the parent's own q3 - q1 exceeds the
#                                 metric's bound: no verdict at this spread
#                     better      the medians differ by more than the
#                                 parent's q3 - q1, in the change's favour
#                     worse       the change is worse by more than the bound
#                     within      none of the above
#
# and the failed/attempted answers each side's runs printed in their JSON
# lines (every distinct figure, so one when the runs agree). Every
# raw output is kept under target/pairs/<workload>-seed<seed>-<time>/.
# Exits non-zero when a run does. Nothing under benchmark/ is written.
set -euo pipefail
usage="usage: scripts/pairs.sh <parent-rev> <workload> [--pairs N] [--seed N] [--seconds S]"
[ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
rev="$1" workload="$2"
shift 2
pairs=10 seed=42 seconds=15
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
    case "$1" in
        --pairs) pairs="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    shift 2
done

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root="$PWD"
sha="$(git rev-parse --short "$rev^{commit}")"
src="$root/target/pairs/src-$sha"
if [ ! -d "$src" ]; then
    rm -rf "$src.part"
    mkdir -p "$src.part"
    git archive "$sha" | tar -x -C "$src.part"
    mv "$src.part" "$src"
fi

build() { # <manifest> <target-dir>
    echo "building $1" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet --manifest-path "$1"
}
build "$src/benchmark/Cargo.toml" "$root/target/pairs/build-$sha"
build "$root/benchmark/Cargo.toml" "$root/target/pairs/build-work"
declare -A bin=(
    [parent]="$root/target/pairs/build-$sha/release/sprite-benchmark"
    [change]="$root/target/pairs/build-work/release/sprite-benchmark"
)

out="$root/target/pairs/$workload-seed$seed-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"
"${bin[change]}" --print-contract >"$out/contract.json"
status=0
for i in $(seq "$pairs"); do
    order=(parent change)
    [ $((i % 2)) -eq 0 ] && order=(change parent)
    for side in "${order[@]}"; do
        echo "pair $i/$pairs: $side ($workload, seed $seed, $seconds s)" >&2
        "${bin[$side]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            >"$out/$side.$i.txt" || { echo "$side run $i exited $?" >&2; status=1; }
    done
done

awk -v pairs="$pairs" -v parent="$sha" '
function sorted(side, m, v,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, m, i) in val) v[++n] = val[side, m, i]
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    return n
}
# linear-interpolation quantile of the sorted v[1..n]
function q(v, n, p,    h, lo) {
    h = 1 + (n - 1) * p
    lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function fmt(x) { return sprintf(x == int(x) || x >= 1000 ? "%.0f" : "%.4g", x) }
FILENAME ~ /contract\.json$/ {
    if (match($0, /"bound": [0-9.]+/)) {
        b = substr($0, RSTART + 9, RLENGTH - 9)
        match($0, /"name": "[^"]+"/); m = substr($0, RSTART + 9, RLENGTH - 10)
        bound[m] = b
        higher[m] = ($0 ~ /"better": "higher"/)
        order[++metrics] = m
    }
    next
}
# run files are <side>.<pair>.txt; metric lines are `name unit value`
FNR == 1 { n = split(FILENAME, path, "/"); split(path[n], part, "."); side = part[1]; pair = part[2] }
NF == 3 && $1 in bound { val[side, $1, pair] = $3; unit[$1] = $2 }
# the distinct failed/attempted figures among the runs of each side
/^\{"correct"/ {
    match($0, /"failed": [0-9]+/); r = substr($0, RSTART + 10, RLENGTH - 10)
    match($0, /"attempted": [0-9]+/); r = r "/" substr($0, RSTART + 13, RLENGTH - 13)
    if (index(" " fa[side] " ", " " r " ") == 0) fa[side] = fa[side] (fa[side] == "" ? "" : " ") r
    runs[side]++
}
END {
    printf "parent %s against the working tree, %d pairs\n", parent, pairs
    printf "%-22s %-6s %-30s %-30s %8s %5s  %s\n", "metric", "unit", "parent median [q1-q3]", "change median [q1-q3]", "delta", "wins", "verdict"
    for (j = 1; j <= metrics; j++) {
        m = order[j]
        np = sorted("parent", m, p); nc = sorted("change", m, c)
        if (np == 0 || nc == 0) continue
        pm = q(p, np, 0.5); cm = q(c, nc, 0.5); iqr = q(p, np, 0.75) - q(p, np, 0.25)
        wins = 0
        for (i = 1; i <= pairs; i++)
            if (("parent", m, i) in val && ("change", m, i) in val) {
                d = val["change", m, i] - val["parent", m, i]
                if (higher[m] ? d > 0 : d < 0) wins++
            }
        delta = pm != 0 ? 100 * (cm - pm) / pm : 0
        gain = higher[m] ? cm - pm : pm - cm
        if (p[1] == p[np] && c[1] == c[nc] && p[1] == c[1]) verdict = "exact"
        else if (iqr > bound[m] * (pm < 0 ? -pm : pm)) verdict = "unresolved"
        else if (gain > iqr) verdict = "better"
        else if (-gain > bound[m] * (pm < 0 ? -pm : pm)) verdict = "worse"
        else verdict = "within"
        printf "%-22s %-6s %-30s %-30s %+7.2f%% %2d/%-2d  %s\n", m, unit[m],
            fmt(pm) " [" fmt(q(p, np, 0.25)) "-" fmt(q(p, np, 0.75)) "]",
            fmt(cm) " [" fmt(q(c, nc, 0.25)) "-" fmt(q(c, nc, 0.75)) "]",
            delta, wins, pairs, verdict
    }
    printf "failed/attempted per run (%d + %d runs): parent %s, change %s\n", runs["parent"],
        runs["change"], fa["parent"], fa["change"]
}' "$out/contract.json" "$out"/parent.*.txt "$out"/change.*.txt | tee "$out/report.txt"
echo "kept in $out" >&2
exit "$status"
