package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail
// latency: the tail is the highest percentile the sample supports.
const tailBeyond = 10

// tail picks the tail latency of a sample: the order statistic with
// exactly tailBeyond samples above it. pct is the share of samples at or
// below it (in percent) and beyond the number above it; with fewer than
// tailBeyond+1 samples no percentile qualifies, so the smallest sample
// is returned with beyond < tailBeyond to say so.
func tail(samples []time.Duration) (v time.Duration, pct float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(samples)
	k := n - 1 - tailBeyond
	if k < 0 {
		k = 0
	}
	return s[k], 100 * float64(k+1) / float64(n), n - 1 - k
}

// median is the middle of the sample, the mean of the two middle
// values for an even count.
func median(samples []time.Duration) time.Duration {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianFloat is median over plain numbers.
func medianFloat(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile (0 <= q <= 1).
func quantile(samples []time.Duration, q float64) time.Duration {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	i := int(q*float64(n) + 0.5)
	if i >= n {
		i = n - 1
	}
	return s[i]
}

func sortedCopy(samples []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, zero when b is zero (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
