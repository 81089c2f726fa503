package main

import (
	"math"
	"sort"
)

// Latency samples are milliseconds. A failed op (non-2xx, timeout or wrong
// answer) is recorded as +Inf: it counts against the attempted total and
// misses every latency percentile.

// percentileLadder is the set of percentiles the benchmark reports, lowest
// first.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minBeyond samples
// beyond the q-quantile.
func supports(q float64, n int) bool {
	return n > 0 && n-rankOf(q, n) >= minBeyond
}

// highestPercentile returns the highest ladder percentile that n samples
// support, or 0 when even the median is not supported.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if supports(q, n) {
			best = q
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile of xs (sorted or not; xs is
// not modified). Failures (+Inf) sort last. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(q, len(s))-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// worseBy returns how much worse cur is than base as a share of base, for a
// metric where "lower" or "higher" is better; negative means better.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// regressed applies a metric's bound: the median of the change's runs is
// worse than the median of the parent's runs by more than bound.
func regressed(parent, change []float64, bound float64, better string) bool {
	return worseBy(median(parent), median(change), better) > bound
}

// iqrShare is the run-to-run spread of a metric: the distance
// between the first and third quartile (Python's statistics.quantiles with
// n=4, exclusive method) as a share of the median.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// exclusive method: position p*(n+1), 1-based.
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		delta := pos - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	m := medianInterp(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// medianOf is the interpolated median of xs (xs is not modified).
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianInterp(s)
}

// medianInterp is the interpolated median of sorted s (Python's
// statistics.median).
func medianInterp(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
