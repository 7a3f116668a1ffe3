#!/usr/bin/env bash
# abpairs.sh — alternating paired runs of one benchmark workload: a git ref
# (A) against the working tree (B).
#
# Usage: scripts/abpairs.sh <git-ref> <workload> <pairs> [bench flags...]
#   e.g. scripts/abpairs.sh HEAD~1 place-cold 10
#        scripts/abpairs.sh HEAD~1 place-cold 10 -seed 3
#        scripts/abpairs.sh HEAD place-cold 1 -smoke
#
# Copies a `git archive` of the ref and the working tree (tracked files
# and untracked ones that are not ignored) into sibling directories of
# one temporary directory, builds ./bench in each, then runs
# `bench -workload <workload> [bench flags...]` in the order A B, B A,
# A B, ... so that drift on the host falls on both sides alike. Each side
# runs from its own copy, with its own BENCHMARK.json and scratch caches,
# so neither side works in the checkout.
#
# Prints each pair's metrics as it completes (on stderr), then, for every
# end-to-end metric of the result lines, each side's median and quartiles
# (the exclusive method of bench/stats.go), how many pairs B won, and
# whether a gain claim holds: B better in at least nine pairs of ten, and
# the medians apart by more than A's interquartile range. Every end-to-end metric of BENCHMARK.json is lower-is-better.
# Exits non-zero if a run fails or reports correct:false; a claim that
# does not hold is reported, not an error.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 <git-ref> <workload> <pairs> [bench flags...]" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=$3
shift 3
case $pairs in '' | *[!0-9]* | 0) echo "$0: pairs must be a positive integer" >&2; exit 2 ;; esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/a" "$tmp/b"
git -C "$root" archive "$ref" | tar -x -C "$tmp/a"
(cd "$root" && git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi # skip deleted tracked files
    done | tar -c --null -T -) | tar -x -C "$tmp/b"
for side in a b; do
    (cd "$tmp/$side" && go build -o "$tmp/bench-$side" ./bench)
done

# one SIDE PAIR: run one side once and append its metrics, one
# "pair metric value" line each, to $tmp/runs-SIDE.
one() {
    local side=$1 pair=$2 line
    if ! line=$(cd "$tmp/$side" && "$tmp/bench-$side" -workload "$workload" "${@:3}" | tail -n 1); then
        echo "$0: pair $pair: side $side failed" >&2
        exit 1
    fi
    case $line in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "$0: pair $pair: side $side is not correct: $line" >&2; exit 1 ;;
    esac
    echo "$line" | grep -o '"[a-z_]*":{"value":[^,}]*' |
        sed 's/^"\([a-z_]*\)":{"value":/\1 /' | sed "s/^/$pair /" >>"$tmp/runs-$side"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="a b"; else order="b a"; fi
    for side in $order; do
        one "$side" "$i" "$@"
    done
    awk -v p="$i" -v head="pair $i/$pairs ($order), A -> B:" '
        $1 == p && FILENAME ~ /runs-a$/ { m[++n] = $2; a[$2] = $3 }
        $1 == p && FILENAME ~ /runs-b$/ { b[$2] = $3 }
        END { printf "%s", head; for (k = 1; k <= n; k++) printf "  %s %s -> %s", m[k], a[m[k]], b[m[k]]; print "" }
    ' "$tmp/runs-a" "$tmp/runs-b" >&2
done

# Lines "pair metric value" of both sides, tagged, into one table per metric.
awk -v pairs="$pairs" '
function sortv(v, n,   i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
}
# cut is quartile i of the n sorted values in v, as bench/stats.go cuts it.
function cut(v, n, i,   j, d) {
    j = int(i * (n + 1) / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    d = i * (n + 1) - j * 4
    return (v[j] * (4 - d) + v[j+1] * d) / 4
}
function stat(side, m,   v, n, p) {
    n = 0
    for (p = 1; p <= pairs; p++) if ((side, m, p) in val) v[++n] = val[side, m, p]
    sortv(v, n)
    med = n % 2 ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
    if (n < 2) { q1 = q3 = med } else { q1 = cut(v, n, 1); q3 = cut(v, n, 3) }
}
FNR == 1 { side = FILENAME ~ /runs-a$/ ? "a" : "b" }
{ val[side, $2, $1] = $3 + 0; if (!($2 in seen)) { seen[$2] = 1; order[++nm] = $2 } }
END {
    need = int((9 * pairs + 9) / 10)
    printf "%-14s %12s %12s %12s   %12s %12s %12s  %6s  %s\n", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "wins", "claim"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        wins = 0
        for (p = 1; p <= pairs; p++) if (val["b", m, p] < val["a", m, p]) wins++
        stat("a", m); am = med; aq1 = q1; aq3 = q3
        stat("b", m)
        holds = wins >= need && am - med > aq3 - aq1 ? "holds" : "does not hold"
        printf "%-14s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %2d/%-3d  %s\n", m, aq1, am, aq3, q1, med, q3, wins, pairs, holds
    }
    printf "claim: B wins >= %d of %d pairs and median(A) - median(B) > IQR(A)\n", need, pairs
}' "$tmp/runs-a" "$tmp/runs-b"
