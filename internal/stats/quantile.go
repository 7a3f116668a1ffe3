package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the "type 7" estimator of
// Hyndman & Fan, the default of R and NumPy). It returns 0 for an empty
// sample and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Quantiles returns the qs-quantiles of xs, sorting the sample once.
func Quantiles(xs []float64, qs []float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// quantileSorted is Quantile over an already sorted sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	h := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + float64(frac*(sorted[lo+1]-sorted[lo]))
}

// CI is a mean with a symmetric normal-approximation confidence interval.
type CI struct {
	N          int
	Mean       float64
	Std        float64 // sample standard deviation (n-1 denominator)
	Confidence float64
	Lo, Hi     float64
}

// MeanCI returns the mean of xs with a confidence-level normal-approximation
// interval mean ± z·s/√n. With fewer than two samples the interval
// degenerates to the mean itself. Confidence outside (0, 1) defaults
// to 0.95.
func MeanCI(xs []float64, confidence float64) CI {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	ci := CI{N: len(xs), Confidence: confidence}
	if len(xs) == 0 {
		return ci
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	ci.Mean = sum / float64(len(xs))
	ci.Lo, ci.Hi = ci.Mean, ci.Mean
	if len(xs) < 2 {
		return ci
	}
	var ss float64
	for _, x := range xs {
		d := x - ci.Mean
		ss += float64(d * d)
	}
	ci.Std = math.Sqrt(ss / float64(len(xs)-1))
	z := NormalQuantile(0.5 + float64(confidence/2))
	half := z * ci.Std / math.Sqrt(float64(len(xs)))
	ci.Lo, ci.Hi = ci.Mean-half, ci.Mean+half
	return ci
}

// NormalQuantile returns the p-quantile of the standard normal
// distribution (the probit function), using Acklam's rational
// approximation (relative error below 1.15e-9 over (0, 1)). It returns
// ±Inf at p = 0 and p = 1.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return horner(c[:], q) / (float64(horner(d[:], q)*q) + 1)
	case p > 1-pLow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -horner(c[:], q) / (float64(horner(d[:], q)*q) + 1)
	default:
		q := p - 0.5
		r := q * q
		return horner(a[:], r) * q / (float64(horner(b[:], r)*r) + 1)
	}
}

// horner evaluates the polynomial with coefficients cs, highest degree
// first, at x.
func horner(cs []float64, x float64) float64 {
	v := cs[0]
	for _, c := range cs[1:] {
		v = float64(v*x) + c
	}
	return v
}
