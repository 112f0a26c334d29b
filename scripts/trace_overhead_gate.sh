#!/usr/bin/env bash
# Trace-overhead gate: with tracing *disabled* the engine must stay
# within MAX_OVERHEAD_PCT of the plain engine — the hot-path cost of a
# disabled tracer is one relaxed atomic load per stage, and this gate
# keeps it that way.
#
# Reads the "engine w4 s8 trace-off" row of BENCH_engine.json, which
# `cargo bench -p dox-bench --bench bench_engine` regenerates. The row
# carries overhead_vs_plain = t_trace_off / t_plain, both best-of-N
# timed round-robin in the same rounds of the same run, so the gate is
# relative to the machine it runs on rather than a pinned baseline.
set -euo pipefail

cd "$(dirname "$0")/.."

MAX_OVERHEAD_PCT=2

row=$(grep '"engine w4 s8 trace-off"' BENCH_engine.json) || {
    echo "no trace-off row in BENCH_engine.json;" \
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
    printf "trace-off: %.3fx the plain engine; ceiling (+%d%%): %.2fx\n",
           r, p, ceiling;
    if (r > ceiling) {
        print "FAIL: tracing-disabled throughput regressed past the gate";
        exit 1;
    }
    print "OK: tracing disabled is within the overhead budget";
}'
