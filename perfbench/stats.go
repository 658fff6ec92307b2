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

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the smallest value with at least p% of the sample
// at or below it. It returns 0 for an empty sample.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(asc)))) - 1
	return asc[max(0, min(i, len(asc)-1))]
}

// median returns the middle of the sample, the mean of the two middle
// values for an even count, and 0 for an empty sample.
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

// minTail is the number of samples that must lie beyond a tail
// percentile before it is reported under its own name.
const minTail = 10

// tailP99 returns the 99th percentile of an ascending sample and the
// label to report it under: "p99" when at least minTail samples lie
// beyond it, "max" (with the sample maximum) otherwise, since a p99 of a
// smaller sample is only its largest few values.
func tailP99(asc []float64) (float64, string) {
	if len(asc) == 0 {
		return 0, "max"
	}
	v := percentile(asc, 99)
	beyond := len(asc) - sort.Search(len(asc), func(i int) bool { return asc[i] > v })
	if beyond >= minTail {
		return v, "p99"
	}
	return asc[len(asc)-1], "max"
}

// quartiles returns the three cut points dividing the sample into four
// groups, with the same rule as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method): point i sits at 1-based position i*(n+1)/4 of
// the ascending sample, interpolated linearly between the two values
// around it (extrapolated from the outermost pair when the position
// falls outside the sample). It needs two or more values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance of a sample as a share of its
// median: the run-to-run noise measure a metric's bound is judged
// against.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}
