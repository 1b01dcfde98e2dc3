#!/usr/bin/env bash
# Alternated parent/change pairs of one benchmark workload (the protocol a
# claimed gain is judged by: at least ten pairs, alternating which side
# runs first, a win in nine tenths of them, and medians further apart than
# the parent's own quartiles).
#
#   tools/ab_pairs.sh <parent-tree> <change-tree> <workload> [pairs=10] [seed=1]
#
# Each tree is a checkout of this repository; its driver is built by its
# own benchmark/run.sh into its own target/ directory, and run from the
# tree with `--workload W --seed S --trace 0` (run length is the
# benchmark's). Prints every pair's values, each side's median and
# quartiles, and the win count, for all seven end-to-end metrics. Ties
# count for neither side. Exits 1 if a run reported a failed operation.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-1}

# name:better
metrics="setup_s:lower verdict_latency_p50_ms:lower verdict_latency_p95_ms:lower
records_per_s:higher cpu_ms_per_epoch:lower peak_rss_mib:lower fscore:higher"

out=$(mktemp)
trap 'rm -f "$out"' EXIT

# One run of one side: appends "<pair> <side> <metric> <value>" lines,
# the failed-operation count among them as metric `ops_failed` (1 when
# the run printed no result at all).
run_side() {
    local pair=$1 side=$2 tree=$3 log
    log=$(CARGO_TARGET_DIR="$tree/target" "$tree/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --trace 0) || true
    awk -v pair="$pair" -v side="$side" '
        $2 == "=" && $1 != "ops_attempted" { print pair, side, $1, $3 }
        $1 == "ops_attempted" { print pair, side, "ops_failed", $NF; seen = 1 }
        END { if (!seen) print pair, side, "ops_failed", 1 }
    ' <<<"$log" >>"$out"
}

echo "workload $workload | seed $seed | $pairs pairs | parent $parent | change $change" >&2
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side "$pair" parent "$parent"
        run_side "$pair" change "$change"
    else
        run_side "$pair" change "$change"
        run_side "$pair" parent "$parent"
    fi
    echo "pair $pair of $pairs done" >&2
done

awk -v metrics="$metrics" -v pairs="$pairs" '
    { v[$3, $2, $1] = $4; if ($3 == "ops_failed") failed[$2] += $4 }
    # q-th quantile (linear interpolation) of a[1..n], sorted in place.
    function quantile(a, n, q,    i, j, t, pos, lo) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
        pos = 1 + (n - 1) * q
        lo = int(pos)
        if (lo >= n) return a[n]
        return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    END {
        n_m = split(metrics, m, /[ \n]+/)
        for (k = 1; k <= n_m; k++) {
            split(m[k], nb, ":")
            name = nb[1]; higher = (nb[2] == "higher")
            printf "\n%s (%s is better)\n  pair  %14s %14s\n", name, nb[2], "parent", "change"
            wins_c = wins_p = ties = 0
            for (p = 1; p <= pairs; p++) {
                a = v[name, "parent", p] + 0; b = v[name, "change", p] + 0
                pa[p] = a; ca[p] = b
                printf "  %4d  %14.6g %14.6g\n", p, a, b
                if (a == b) ties++
                else if ((b > a) == higher) wins_c++
                else wins_p++
            }
            pq1 = quantile(pa, pairs, 0.25); pmed = quantile(pa, pairs, 0.5); pq3 = quantile(pa, pairs, 0.75)
            cq1 = quantile(ca, pairs, 0.25); cmed = quantile(ca, pairs, 0.5); cq3 = quantile(ca, pairs, 0.75)
            printf "  parent median %.6g, quartiles %.6g .. %.6g\n", pmed, pq1, pq3
            printf "  change median %.6g, quartiles %.6g .. %.6g", cmed, cq1, cq3
            if (pmed != 0) printf " (%+.1f %% of the parent median)", (cmed - pmed) / pmed * 100
            printf "\n  change wins %d, parent wins %d, ties %d of %d pairs", wins_c, wins_p, ties, pairs
            gap = cmed - pmed; if (gap < 0) gap = -gap
            better = (cmed != pmed) && ((cmed > pmed) == higher)
            if (better && wins_c * 10 >= 9 * pairs && gap > pq3 - pq1)
                printf ": a gain (>= 9/10 of the pairs, medians apart by more than the parent quartile distance %.6g)", pq3 - pq1
            printf "\n"
        }
        printf "\nfailed operations: parent %d, change %d\n", failed["parent"], failed["change"]
        exit (failed["parent"] + failed["change"] > 0)
    }
' "$out"
