package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics, 0 for none. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is quantile under the sample-count rule of the
// choosing-metrics guide: a tail percentile is reported only when at
// least ten samples lie beyond it (p90 needs 100 samples, p99 1000).
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if float64(len(xs))*(1-p) < 10-1e-9 { // 100 x (1 - 0.9) is 9.99...98 in floating point
		return 0, false
	}
	return quantile(xs, p), true
}

// spread is the distance between the first and third quartile as a
// share of the median -- the run-to-run spread the comparator holds
// against a metric's bound. 0 for fewer than two samples.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts to the unit conv yields (ms, us, ...).
func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
