package main

import (
	"fmt"
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile p (0 < p <= 1) of xs; 0 when
// xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile picks the highest of p50/p90/p99/p99.9 that still has
// at least ten samples beyond it, which is the percentile a timing is
// reported at next to its median.
func tailPercentile(n int) (label string, p float64) {
	label, p = "p50", 0.5
	for _, c := range []struct {
		label    string
		perMille int
	}{{"p90", 900}, {"p99", 990}, {"p99.9", 999}} {
		if n*(1000-c.perMille) >= 10*1000 {
			label, p = c.label, float64(c.perMille)/1000
		}
	}
	return label, p
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver computes spreads from. It needs two values or more.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// worseBy is how much cur is worse than base as a share of base, in the
// metric's own direction; negative when cur is better.
func worseBy(m metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// regressed reports whether cur is worse than base by more than the
// metric's bound.
func regressed(m metricDef, base, cur float64) bool {
	return worseBy(m, base, cur) > m.Bound
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
