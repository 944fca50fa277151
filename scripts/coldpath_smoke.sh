#!/usr/bin/env bash
# coldpath_smoke.sh — guard the lattice cold path against silent
# regression with ratios taken in one run, so the gates mean the same
# on a 1-core box and a multi-core CI runner:
#
#   quad     BenchmarkQuadPutChain1024 (internal/lattice): a 64-put
#            volatility-curve chunk through PriceBatch on one worker, the
#            kernel production cache misses take;
#   portable BenchmarkQuadPutChain1024Portable (internal/lattice): the same
#            chunk with the portable Go level kernels forced;
#   scalar   BenchmarkPriceAmericanPut1024 (internal/serve): one put through
#            the scalar reference sweep, also on one core.
#
# Two gates, each best-of-N options/s over best-of-N options/s:
#
#   quad/scalar   >= MIN_SPEEDUP on any host. It catches a lost quad
#                 optimisation (an accidentally scalar or quadratic sweep).
#   quad/portable >= MIN_AVX2_SPEEDUP where the quad benchmark logs that it
#                 runs the AVX2 kernels ("quad kernel: avx2"). It catches a
#                 lost vector kernel: a dispatch that silently falls back to
#                 the portable path, or a slowed assembly loop. On hosts
#                 without AVX2 both rows run the same kernels, so the gate
#                 is skipped and the script says so.
#
# Neither compares absolute ns against a baseline recorded on another
# machine. Benchmark rows are matched with or without go test's -N
# GOMAXPROCS suffix.
#
# Run from the repository root:  ./scripts/coldpath_smoke.sh
set -euo pipefail

QUAD=BenchmarkQuadPutChain1024
PORTABLE=BenchmarkQuadPutChain1024Portable
SCALAR=BenchmarkPriceAmericanPut1024
COUNT=3
MIN_SPEEDUP=5
MIN_AVX2_SPEEDUP=2

fail() {
    echo "coldpath_smoke: FAIL: $*" >&2
    exit 1
}

echo "coldpath_smoke: running $QUAD, $PORTABLE and $SCALAR (count=$COUNT)"
out=$(go test ./internal/lattice/ ./internal/serve/ -run '^$' \
    -bench "^(${QUAD}|${PORTABLE}|${SCALAR})\$" -benchtime 1s -count "$COUNT")
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

# gate NAME NUM DEN MIN prints NUM/DEN and fails unless it is >= MIN.
gate() {
    local verdict ratio
    verdict=$(awk -v q="$2" -v s="$3" -v min="$4" \
        'BEGIN { r = q / s; printf "%.2f %s", r, (r >= min ? "ok" : "low") }')
    ratio=${verdict% *}
    echo "coldpath_smoke: $1 speedup ${ratio}x (gate >= $4x)"
    [ "${verdict#* }" = ok ] || fail "$1 speedup ${ratio}x is below $4x"
}

quad=$(best "$QUAD")
portable=$(best "$PORTABLE")
scalar=$(best "$SCALAR")
[ -n "$quad" ] || fail "$QUAD produced no samples"
[ -n "$portable" ] || fail "$PORTABLE produced no samples"
[ -n "$scalar" ] || fail "$SCALAR produced no samples"

echo "coldpath_smoke: quad ${quad} options/s, portable quad ${portable} options/s, scalar ${scalar} options/s"
gate quad/scalar "$quad" "$scalar" "$MIN_SPEEDUP"
if grep -q 'quad kernel: avx2' <<<"$out"; then
    gate quad/portable "$quad" "$portable" "$MIN_AVX2_SPEEDUP"
else
    echo "coldpath_smoke: quad/portable gate skipped: this host runs the portable quad kernels (no AVX2)"
fi
echo "coldpath_smoke: PASS"
