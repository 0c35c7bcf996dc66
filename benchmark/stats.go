package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method):
// the driver computes run-to-run spread that way, so -selfcheck has to.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by
// nearest rank, or 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	} else if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentile picks the highest reportable percentile for n samples:
// the largest of 50, 75, 90, 95, 99, 99.9 that still leaves at least ten
// samples beyond it. With fewer than twenty samples only the median is
// reportable, so it returns 50.
func tailPercentile(n int) float64 {
	for _, c := range []struct{ p, beyond float64 }{{99.9, 0.001}, {99, 0.01}, {95, 0.05}, {90, 0.1}, {75, 0.25}} {
		if float64(n)*c.beyond >= 10-1e-9 {
			return c.p
		}
	}
	return 50
}

// relWorse returns by what share of a the value b is worse than a, given
// the metric's direction; negative means b is better.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
