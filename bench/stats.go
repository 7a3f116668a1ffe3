package main

import (
	"math"
	"sort"
)

// median returns the middle of the values (mean of the middle two for
// an even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tailPercentile is the reporting rule for latency tails: the highest
// whole percentile that still has at least ten samples beyond it. Below
// 20 samples there is none (ok is false) — a tail read off fewer than
// ten samples is one run's luck, not a property of the system.
func tailPercentile(n int) (p int, ok bool) {
	if n < 20 {
		return 0, false
	}
	return (n - 10) * 100 / n, true
}

// percentile is the nearest-rank p-th percentile.
func percentile(v []float64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// returns (the "exclusive" method), because that is what the driver
// that gates this benchmark computes its spread from. Needs at least
// two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure every bound in BENCHMARK.json is judged
// against. 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
