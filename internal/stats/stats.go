// Package stats provides the statistical utilities the reproduction relies
// on: summary statistics, power-law tail exponent estimation, and linear
// least-squares fitting used by the workload model of Section III-A.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the moments and extremes of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Sum    float64
	Median float64
}

// Summarize computes summary statistics of xs. It returns a zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// SummarizeInts is Summarize for integer samples.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// PowerLawAlpha estimates the tail exponent alpha of a power-law
// distribution p(x) ~ x^-alpha for samples x >= xmin, using the standard
// continuous maximum-likelihood (Hill) estimator:
//
//	alpha = 1 + n / sum(ln(x_i/xmin))
//
// Samples below xmin are ignored. Returns 0 if fewer than two samples
// qualify.
func PowerLawAlpha(xs []float64, xmin float64) float64 {
	if xmin <= 0 {
		return 0
	}
	var n int
	var sum float64
	for _, x := range xs {
		if x >= xmin {
			n++
			sum += math.Log(x / xmin)
		}
	}
	if n < 2 || sum == 0 {
		return 0
	}
	return 1 + float64(n)/sum
}

// LinearFit holds the coefficients of y = A + B*x.
type LinearFit struct {
	A, B float64
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.A + f.B*x }

// FitLinearWeighted computes the weighted least squares line through
// (xs, ys) with non-negative weights ws (nil means uniform, i.e. ordinary
// least squares). Weighting by 1/y turns the objective into relative
// error, which is how the load model is fitted (small locations matter as
// much as huge ones). It panics if the slices differ in length and returns
// a degenerate fit (A = mean(ys), B = 0) when the xs have no variance.
func FitLinearWeighted(xs, ys, ws []float64) LinearFit {
	if len(xs) != len(ys) || (ws != nil && len(ws) != len(xs)) {
		panic(fmt.Sprintf("stats: FitLinearWeighted length mismatch %d/%d/%d", len(xs), len(ys), len(ws)))
	}
	if len(xs) == 0 {
		return LinearFit{}
	}
	weight := func(i int) float64 {
		if ws == nil {
			return 1
		}
		return ws[i]
	}
	var sw, sx, sy float64
	for i := range xs {
		w := weight(i)
		sw += w
		sx += w * xs[i]
		sy += w * ys[i]
	}
	if sw == 0 {
		return LinearFit{}
	}
	mx, my := sx/sw, sy/sw
	var sxx, sxy float64
	for i := range xs {
		w := weight(i)
		dx := xs[i] - mx
		sxx += w * dx * dx
		sxy += w * dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearFit{A: my}
	}
	b := sxy / sxx
	return LinearFit{A: my - b*mx, B: b}
}

// MeanRelativeError returns mean(|pred-obs| / max(|obs|, eps)) — the error
// metric the paper reports for the load model ("5% error on average").
func MeanRelativeError(pred, obs []float64) float64 {
	if len(pred) != len(obs) {
		panic("stats: MeanRelativeError length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	const eps = 1e-12
	var sum float64
	for i := range pred {
		den := math.Abs(obs[i])
		if den < eps {
			den = eps
		}
		sum += math.Abs(pred[i]-obs[i]) / den
	}
	return sum / float64(len(pred))
}

// R2 returns the coefficient of determination of predictions pred against
// observations obs. Returns 1 for a perfect fit; can be negative for fits
// worse than the mean.
func R2(pred, obs []float64) float64 {
	if len(pred) != len(obs) {
		panic("stats: R2 length mismatch")
	}
	if len(obs) == 0 {
		return 0
	}
	var mean float64
	for _, y := range obs {
		mean += y
	}
	mean /= float64(len(obs))
	var ssRes, ssTot float64
	for i := range obs {
		d := obs[i] - pred[i]
		ssRes += d * d
		t := obs[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
