package main

import (
	"math"
	"sort"
)

// quantile reads q from the samples (nearest rank). It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// share is a/b, and 0 for an empty base.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the distance between the first and the third
// quartile as a share of the median, the way the driver takes it
// (Python's statistics.quantiles(values, n=4), the exclusive method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // the k-th of the three cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		d := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return share(at(3)-at(1), math.Abs(median(s)))
}
