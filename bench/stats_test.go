package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 2, 9, 3, 8, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if got := spread(xs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, pct int }{{1000, 99}, {300, 96}, {140, 92}, {20, 50}, {19, 0}} {
		if got := tailPct(c.n); got != c.pct {
			t.Errorf("tailPct(%d) = %d, want %d", c.n, got, c.pct)
		}
	}
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, n := tail(xs)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if pct != 96 || n != 300 || beyond < 10 {
		t.Fatalf("tail = %v at p%d of %d with %d beyond; want p96 of 300 with >= 10 beyond", v, pct, n, beyond)
	}
	if v, pct, n := tail([]float64{3, 1, 2}); v != 3 || pct != 100 || n != 3 {
		t.Fatalf("tail of 3 samples = %v p%d n%d; want the maximum at p100", v, pct, n)
	}
}
