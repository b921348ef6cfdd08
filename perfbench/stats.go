package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the
// steadiness check is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// The same integer arithmetic as CPython, including its clamp of
		// j to 1..n-1 (which extrapolates for very small n).
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailMinBeyond is how many samples must lie beyond a reported tail.
const tailMinBeyond = 10

// tail returns the highest percentile of tailLadder that has at least
// tailMinBeyond samples beyond it, the nearest-rank value there, and how
// many samples lie beyond. ok is false when even the median has fewer.
func tail(xs []float64) (pct, value float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// Nearest rank; the epsilon keeps 99.9% of 10000 at rank 9990
		// despite binary rounding.
		k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
		if k < 0 {
			k = 0
		}
		if b := n - 1 - k; b >= tailMinBeyond {
			return p, s[k], b, true
		}
	}
	return 0, 0, 0, false
}
