package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported as supported: p99 needs at least 1000 samples.
const minBeyond = 10

// pct is one exact percentile of raw samples, with the sample count
// behind it.
type pct struct {
	value float64
	n     int
	p     float64 // the requested percentile, 0 < p <= 100
}

// supported reports whether at least minBeyond samples lie beyond the
// percentile. The median of one sample is supported; a p99 of 500 is
// not.
func (q pct) supported() bool {
	return q.p <= 50 && q.n > 0 || q.n-rank(q.p, q.n) >= minBeyond
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank percentile p of xs: an actual
// sample, never an interpolation or a histogram bucket edge. xs is not
// modified. An empty input gives value 0 with n = 0.
func percentile(xs []float64, p float64) pct {
	if len(xs) == 0 {
		return pct{p: p}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return pct{value: s[rank(p, len(s))-1], n: len(s), p: p}
}

// median is percentile 50 of xs.
func median(xs []float64) float64 { return percentile(xs, 50).value }

// ms converts a duration to fractional milliseconds, keeping every
// nanosecond digit.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
