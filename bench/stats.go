package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle pair for an
// even count), or 0 for no samples.
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

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads reported here match the ones the acceptance check
// computes. Fewer than two samples give a zero spread.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tailPct is the highest whole percentile that still has at least ten
// samples beyond it among n samples, or 0 when there are too few samples
// for any tail (n < 20: the tail would sit at or below the median).
func tailPct(n int) int {
	if n < 20 {
		return 0
	}
	return int(math.Floor(100 * (1 - 10/float64(n))))
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tail reports a timing's tail by the rule every latency here follows: the
// value at the highest percentile with at least ten samples beyond it, that
// percentile, and the sample count. With too few samples the tail is the
// maximum and the percentile 100.
func tail(xs []float64) (value float64, pct int, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	pct = tailPct(n)
	if pct == 0 {
		s := sorted(xs)
		return s[n-1], 100, n
	}
	return percentile(xs, float64(pct)), pct, n
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
