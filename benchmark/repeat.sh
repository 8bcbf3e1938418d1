#!/usr/bin/env bash
# Two run sets of the same commit, compared against the benchmark's own
# bounds: the evidence that the benchmark can resolve a change of the size
# its bounds name.
#
#   benchmark/repeat.sh [runs-per-set] [seed] [seconds]     (default 5 42 15)
#
# Runs set A, then set B: every workload `runs` times, untraced, same seed.
# Prints, per end-to-end metric x workload, both medians, how much worse B
# is than A (as a share of A, in the metric's own direction), and
#   ok          the difference is within the metric's bound
#   unresolved  it is not: at this bound the two sets of the same code
#               cannot be told apart from a regression
# plus `exact` when every run of both sets printed the identical value (the
# six simulated metrics must: they are pure functions of the seed).
# Everything is kept under benchmark/out/repeat-<time>/.
set -euo pipefail
runs="${1:-5}"
seed="${2:-42}"
seconds="${3:-15}"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/sprite-benchmark"
out="benchmark/out/repeat-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"
"$bin" --print-contract >"$out/contract.json"
workloads=(serve-full route-huge index-build churn-repair)
for set in A B; do
    for w in "${workloads[@]}"; do
        for i in $(seq "$runs"); do
            echo "set $set: $w run $i/$runs" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                >"$out/$set.$w.$i.txt"
        done
    done
done

awk '
function median(key, n,    i, j, t, v) {
    for (i = 1; i <= n; i++) v[i] = val[key, i]
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
# contract.json: one end-to-end metric per line, with its direction and bound
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
# run files are <set>.<workload>.<i>.txt; metric lines are `name unit value`
FNR == 1 { n = split(FILENAME, path, "/"); split(path[n], part, "."); set = part[1]; w = part[2] }
NF == 3 && $1 in bound {
    key = set SUBSEP w SUBSEP $1
    val[key, ++count[key]] = $3
    all = w SUBSEP $1
    if (!(all in lo) || $3 < lo[all]) lo[all] = $3
    if (!(all in hi) || $3 > hi[all]) hi[all] = $3
    unit[$1] = $2
}
END {
    printf "%-13s %-22s %-6s %16s %16s %9s %6s  %s\n", "workload", "metric", "unit", "median A", "median B", "B worse", "bound", "verdict"
    nw = split("serve-full route-huge index-build churn-repair", ws, " ")
    for (i = 1; i <= nw; i++) for (j = 1; j <= metrics; j++) {
        w = ws[i]; m = order[j]
        a = median("A" SUBSEP w SUBSEP m, count["A", w, m])
        b = median("B" SUBSEP w SUBSEP m, count["B", w, m])
        worse = higher[m] ? (a - b) / a : (b - a) / a
        verdict = worse <= bound[m] ? "ok" : "unresolved"
        if (lo[w, m] == hi[w, m]) verdict = verdict " exact"
        printf "%-13s %-22s %-6s %16.6f %16.6f %8.2f%% %5.1f%%  %s\n", w, m, unit[m], a, b, 100 * worse, 100 * bound[m], verdict
    }
}' "$out/contract.json" "$out"/[AB].*.txt | tee "$out/report.txt"
echo "kept in $out" >&2
