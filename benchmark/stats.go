package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive"
// method: positions p*(n+1), clamped to the sample) — the driver
// computes a metric's spread with it, so the spread table does too.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(0.25), at(0.75)
}

// capQuantile is quantile at q, lowered to the highest of the usual
// tail percentiles that still has at least ten samples beyond it — a
// p99 over 200 samples rests on two points and does not repeat. A metric
// named "_p99" over too few samples reports the percentile it can
// support, down to the median; the report's sample count says which.
func capQuantile(xs []float64, q float64) float64 {
	for _, tail := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if tail <= q && (tail == 0.5 || float64(len(xs))*(1-tail) >= 10) {
			return quantile(xs, tail)
		}
	}
	return quantile(xs, q)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
