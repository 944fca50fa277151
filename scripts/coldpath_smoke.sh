#!/usr/bin/env bash
# coldpath_smoke.sh — guard the lattice cold path against silent
# regression with a ratio taken in one run, so the gate means the same
# on a 1-core box and a multi-core CI runner:
#
#   quad   BenchmarkQuadPutChain1024 (internal/lattice): a 64-put
#          volatility-curve chunk through PriceBatch on one worker, the
#          kernel production cache misses take;
#   scalar BenchmarkPriceAmericanPut1024 (internal/serve): one put through
#          the scalar reference sweep, also on one core.
#
# The gate is best-of-N quad options/s over best-of-N scalar options/s,
# which must stay at or above MIN_SPEEDUP. It catches a lost quad
# optimisation (an accidentally scalar or quadratic sweep) without
# comparing absolute ns against a baseline recorded on another machine.
# Benchmark rows are matched with or without go test's -N GOMAXPROCS
# suffix.
#
# Run from the repository root:  ./scripts/coldpath_smoke.sh
set -euo pipefail

QUAD=BenchmarkQuadPutChain1024
SCALAR=BenchmarkPriceAmericanPut1024
COUNT=3
MIN_SPEEDUP=5

fail() {
    echo "coldpath_smoke: FAIL: $*" >&2
    exit 1
}

echo "coldpath_smoke: running $QUAD and $SCALAR (count=$COUNT)"
out=$(go test ./internal/lattice/ ./internal/serve/ -run '^$' \
    -bench "^(${QUAD}|${SCALAR})\$" -benchtime 1s -count "$COUNT")
echo "$out"

# best prints the highest options/s over the named benchmark's rows:
# the reported options/s metric when the row has one, else 1e9 / ns/op.
best() {
    echo "$out" | awk -v bench="$1" '
        { name = $1; sub(/-[0-9]+$/, "", name) }
        name == bench {
            rate = ""
            for (i = 3; i <= NF; i++) {
                if ($i == "options/s") rate = $(i - 1)
                if ($i == "ns/op" && rate == "") ns = $(i - 1)
            }
            if (rate == "" && ns > 0) rate = 1e9 / ns
            if (rate != "" && (best == "" || rate + 0 > best + 0)) best = rate
        }
        END { print best }
    '
}

quad=$(best "$QUAD")
scalar=$(best "$SCALAR")
[ -n "$quad" ] || fail "$QUAD produced no samples"
[ -n "$scalar" ] || fail "$SCALAR produced no samples"

verdict=$(awk -v q="$quad" -v s="$scalar" -v min="$MIN_SPEEDUP" \
    'BEGIN { r = q / s; printf "%.2f %s", r, (r >= min ? "ok" : "low") }')
ratio=${verdict% *}
echo "coldpath_smoke: quad ${quad} options/s, scalar ${scalar} options/s, speedup ${ratio}x (gate >= ${MIN_SPEEDUP}x)"
if [ "${verdict#* }" != ok ]; then
    fail "quad speedup ${ratio}x over the scalar sweep is below ${MIN_SPEEDUP}x"
fi
echo "coldpath_smoke: PASS"
