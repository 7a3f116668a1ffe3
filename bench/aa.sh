#!/bin/sh
# bench/aa.sh N — an A/A check of the benchmark itself: N back-to-back
# sets of every workload on the current tree, then N more, compared with
# the bounds in BENCHMARK.json. Identical code on both sides, so every
# verdict must be "ok"; exits non-zero otherwise. N defaults to 5 and a
# set takes about a minute and a half.
set -eu
n=${1:-5}
cd "$(dirname "$0")/.."
mkdir -p bench/out
go build -o bench/out/bench ./bench
bench/out/bench -sets "$n" -out bench/out/aa-a.json
bench/out/bench -sets "$n" -out bench/out/aa-b.json
bench/out/bench -compare bench/out/aa-a.json bench/out/aa-b.json
