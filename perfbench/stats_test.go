package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// ramp returns 1..n in order.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailP99Labelling(t *testing.T) {
	// 1000 samples: the nearest-rank p99 is the 990th value and exactly
	// ten lie beyond it, so it is reported as p99.
	v, label := tailP99(ramp(1000))
	if label != "p99" || v != 990 {
		t.Errorf("1000 samples: got %v %q, want 990 p99", v, label)
	}
	// 999 samples leave only nine beyond the p99: report the maximum.
	v, label = tailP99(ramp(999))
	if label != "max" || v != 999 {
		t.Errorf("999 samples: got %v %q, want 999 max", v, label)
	}
	// Ties at the percentile do not count as beyond it.
	tied := ramp(1000)
	for i := 985; i < 995; i++ {
		tied[i] = 990
	}
	if _, label := tailP99(tied); label != "max" {
		t.Errorf("tied tail: got %q, want max", label)
	}
	if v, label := tailP99(nil); v != 0 || label != "max" {
		t.Errorf("empty sample: got %v %q", v, label)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{ramp(10), 2.75, 5.5, 8.25},
		{ramp(9), 2.5, 5, 7.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 10, 10, 10}, 10, 10, 10},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should fail")
	}
}

func TestSpread(t *testing.T) {
	s, ok := spread(ramp(10))
	if !ok || !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v, want 1", s)
	}
	if _, ok := spread([]float64{0, 0, 0}); ok {
		t.Error("spread around a zero median should fail")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
