#!/usr/bin/env bash
# Store-overhead gate: the engine with dedup shards spilling to the
# crash-safe segment store and a durable checkpoint every 4096 docs
# must stay within MAX_OVERHEAD_PCT of the plain in-memory engine.
#
# Reads the "engine w4 s8 store-dedup" row of BENCH_engine.json, which
# `cargo bench -p dox-bench --bench bench_engine` regenerates. The row
# carries overhead_vs_plain = t_store / t_plain, both best-of-N timed
# round-robin in the same rounds of the same run, so the gate is
# self-relative — no pinned cross-machine baseline to drift.
set -euo pipefail

cd "$(dirname "$0")/.."

MAX_OVERHEAD_PCT=10

row=$(grep '"engine w4 s8 store-dedup"' BENCH_engine.json) || {
    echo "no store-dedup row in BENCH_engine.json;" \
         "run: cargo bench -p dox-bench --bench bench_engine -- --test" >&2
    exit 1
}
ratio=$(sed -n 's/.*"overhead_vs_plain": \([0-9.][0-9.]*\).*/\1/p' <<<"$row")
if [[ -z "$ratio" ]]; then
    echo "cannot parse overhead_vs_plain from: $row" >&2
    exit 1
fi

awk -v r="$ratio" -v p="$MAX_OVERHEAD_PCT" 'BEGIN {
    ceiling = 1 + p / 100;
    printf "store-dedup: %.3fx the plain engine; ceiling (+%d%%): %.2fx\n",
           r, p, ceiling;
    if (r > ceiling) {
        print "FAIL: store-backed dedup overhead exceeds the gate";
        exit 1;
    }
    print "OK: store-backed durability is within the overhead budget";
}'
