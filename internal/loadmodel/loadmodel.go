// Package loadmodel implements the workload estimation models of
// Section III-A, used to assign vertex weights for graph partitioning and
// to drive the machine model:
//
//   - the static location load model: a piecewise linear function of the
//     number of arrive/depart events X, blended by a sigmoid around the
//     crossover point φ (the exact published form and constants are
//     available as Paper()); and fitting of those constants against
//     measured DES processing times (Figure 3(a));
//   - the dynamic location load model, a linear function of event count,
//     interaction count and the sum of reciprocal interactions, only
//     available at run time (Figure 3(b)) and therefore not used for
//     partitioning, exactly as in the paper;
//   - the person load model: a person's load is the number of (visit)
//     messages it generates.
package loadmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Static is the static location load model:
//
//	X' = µ·X
//	Ya = A1 + B1·X'
//	Yb = A2 + B2·X'
//	Y  = Ya·S((φ-X')/W) + Yb·S((X'-φ)/W)   with   S(t) = 1/(1+ρ·e^(-t))
//
// W is a transition width: the paper's published form has W = 1 (the
// sigmoid then acts as a near-step at φ); fitted models use a width
// proportional to φ so the blend is visible at our scales.
type Static struct {
	Mu    float64
	Phi   float64
	Rho   float64
	Width float64
	A1    float64 // Ya intercept (below crossover)
	B1    float64 // Ya slope
	A2    float64 // Yb intercept (above crossover)
	B2    float64 // Yb slope
}

// Paper returns the exact model published in Section III-A, with µ = 1,
// ρ = 1, W = 1 and the crossover φ at the intersection of the two lines
// (the paper determines φ experimentally; the intersection is the value
// consistent with continuity of the blend). The output unit is seconds of
// Blue Waters LocationManager processing time.
func Paper() Static {
	const (
		a1 = 6.09e-6
		b1 = 7.72e-7
		a2 = -1.25e-4
		b2 = 8.67e-7
	)
	phi := (a1 - a2) / (b2 - b1) // Ya(φ) = Yb(φ)
	return Static{Mu: 1, Phi: phi, Rho: 1, Width: 1, A1: a1, B1: b1, A2: a2, B2: b2}
}

// sigmoid is S(t) = 1/(1+ρ·e^(-t)).
func sigmoid(t, rho float64) float64 { return 1 / (1 + float64(rho*math.Exp(-t))) }

// Load estimates the processing time of a location with the given number
// of arrive/depart events.
func (m Static) Load(events float64) float64 {
	xp := float64(m.Mu * events)
	ya := m.A1 + float64(m.B1*xp)
	yb := m.A2 + float64(m.B2*xp)
	w := m.Width
	if w <= 0 {
		w = 1
	}
	y := float64(ya*sigmoid((m.Phi-xp)/w, m.Rho)) + float64(yb*sigmoid((xp-m.Phi)/w, m.Rho))
	if y < 0 {
		// The lower linear piece can dip below zero near X = 0; clamp, a
		// location never has negative cost.
		y = 0
	}
	return y
}

// VisitLoad is the static load of a location receiving the given number
// of daily visits: every visit is one arrive and one depart event.
func (m Static) VisitLoad(visits int32) float64 { return m.Load(float64(2 * visits)) }

// VisitLoads applies VisitLoad to a vector of per-location visit counts
// (synthpop.Population.VisitCountsPerLocation).
func (m Static) VisitLoads(visits []int32) []float64 {
	out := make([]float64, len(visits))
	for i, v := range visits {
		out[i] = m.VisitLoad(v)
	}
	return out
}

// FitStatic fits a Static model to measured (events, seconds) pairs by
// scanning candidate crossover points and fitting ordinary least squares
// lines to each side, keeping the split with the smallest total squared
// error. This mirrors the paper's "piecewise linear regression to
// approximate the non-linear dependence". At least four points are
// required on each side of a candidate crossover.
func FitStatic(events []float64, seconds []float64) (Static, error) {
	if len(events) != len(seconds) {
		return Static{}, fmt.Errorf("loadmodel: FitStatic length mismatch %d vs %d", len(events), len(seconds))
	}
	n := len(events)
	if n < 8 {
		return Static{}, fmt.Errorf("loadmodel: FitStatic needs >= 8 points, got %d", n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return events[idx[a]] < events[idx[b]] })
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, j := range idx {
		xs[i] = events[j]
		ys[i] = seconds[j]
	}

	// Relative least squares: weight each point by 1/y² so the objective
	// is squared *relative* error — small locations count as much as huge
	// ones, matching how the paper validates the model across the range.
	weights := make([]float64, n)
	for i, y := range ys {
		d := math.Abs(y)
		if d < 1e-12 {
			d = 1e-12
		}
		weights[i] = 1 / (d * d)
	}
	sse := func(fit stats.LinearFit, xs, ys, ws []float64) float64 {
		var s float64
		for i := range xs {
			d := ys[i] - fit.Predict(xs[i])
			s += float64(ws[i] * d * d)
		}
		return s
	}

	best := math.Inf(1)
	var bestLo, bestHi stats.LinearFit
	var bestPhi float64
	const minSide = 4
	for cut := minSide; cut <= n-minSide; cut++ {
		// Skip duplicate X so both sides see distinct ranges.
		if cut > 0 && xs[cut] == xs[cut-1] {
			continue
		}
		lo := stats.FitLinearWeighted(xs[:cut], ys[:cut], weights[:cut])
		hi := stats.FitLinearWeighted(xs[cut:], ys[cut:], weights[cut:])
		total := sse(lo, xs[:cut], ys[:cut], weights[:cut]) + sse(hi, xs[cut:], ys[cut:], weights[cut:])
		if total < best {
			best = total
			bestLo, bestHi = lo, hi
			bestPhi = (xs[cut-1] + xs[cut]) / 2
		}
	}
	if math.IsInf(best, 1) {
		return Static{}, fmt.Errorf("loadmodel: FitStatic found no valid crossover")
	}
	m := Static{
		Mu:    1,
		Phi:   bestPhi,
		Rho:   1,
		Width: math.Max(bestPhi/20, 1),
		A1:    bestLo.A, B1: bestLo.B,
		A2: bestHi.A, B2: bestHi.B,
	}
	return m, nil
}

// Dynamic is the run-time location load model of Figure 3(b):
//
//	Y = C0 + C1·events + C2·interactions + C3·sumReciprocal
//
// The interaction terms are only known during execution, so the dynamic
// model is not used for partitioning (Section III-A), only for run-time
// accounting in the machine model.
type Dynamic struct {
	C0, C1, C2, C3 float64
}

// Load estimates processing time from run-time observables.
func (m Dynamic) Load(events float64, interactions float64, sumReciprocal float64) float64 {
	y := m.C0 + float64(m.C1*events) + float64(m.C2*interactions) + float64(m.C3*sumReciprocal)
	if y < 0 {
		y = 0
	}
	return y
}

// FitDynamic fits the dynamic model by ordinary least squares over the
// three predictors. Inputs are parallel slices.
func FitDynamic(events, interactions, sumReciprocal, seconds []float64) (Dynamic, error) {
	n := len(seconds)
	if len(events) != n || len(interactions) != n || len(sumReciprocal) != n {
		return Dynamic{}, fmt.Errorf("loadmodel: FitDynamic length mismatch")
	}
	if n < 8 {
		return Dynamic{}, fmt.Errorf("loadmodel: FitDynamic needs >= 8 points, got %d", n)
	}
	// Normal equations for X = [1, e, i, r].
	const k = 4
	var xtx [k][k]float64
	var xty [k]float64
	for i := 0; i < n; i++ {
		row := [k]float64{1, events[i], interactions[i], sumReciprocal[i]}
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				xtx[a][b] += float64(row[a] * row[b])
			}
			xty[a] += float64(row[a] * seconds[i])
		}
	}
	sol, err := solveLinearSystem(xtx, xty)
	if err != nil {
		return Dynamic{}, err
	}
	return Dynamic{C0: sol[0], C1: sol[1], C2: sol[2], C3: sol[3]}, nil
}

// solveLinearSystem solves the 4x4 system via Gaussian elimination with
// partial pivoting.
func solveLinearSystem(a [4][4]float64, b [4]float64) ([4]float64, error) {
	const k = 4
	for col := 0; col < k; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return [4]float64{}, fmt.Errorf("loadmodel: singular normal equations (column %d)", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < k; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	var x [4]float64
	for r := k - 1; r >= 0; r-- {
		x[r] = b[r]
		for c := r + 1; c < k; c++ {
			x[r] -= float64(a[r][c] * x[c])
		}
		x[r] /= a[r][r]
	}
	return x, nil
}

// PersonLoad is the paper's person-phase load model: "we approximate the
// load of a person vertex as the number of messages the person generates",
// i.e. its visit count.
func PersonLoad(numVisits int) float64 { return float64(numVisits) }

// Quantizer converts floating point loads into the positive integer
// weights graph partitioners require, preserving ratios up to the quantum.
type Quantizer struct {
	quantum float64
}

// NewQuantizer picks a quantum so that the smallest positive load maps to
// at least minUnits (resolution) while the largest stays well inside int64.
func NewQuantizer(loads []float64, minUnits int64) Quantizer {
	minPos := math.Inf(1)
	maxV := 0.0
	for _, l := range loads {
		if l > 0 && l < minPos {
			minPos = l
		}
		if l > maxV {
			maxV = l
		}
	}
	if math.IsInf(minPos, 1) || maxV == 0 {
		return Quantizer{quantum: 1}
	}
	q := minPos / float64(minUnits)
	// Cap so max load stays under 2^40 units: plenty of headroom for sums.
	if maxV/q > 1<<40 {
		q = maxV / (1 << 40)
	}
	return Quantizer{quantum: q}
}

// Quantize maps a load to integer units (>= 1 for any positive load).
func (q Quantizer) Quantize(load float64) int64 {
	if load <= 0 {
		return 0
	}
	u := int64(math.Round(load / q.quantum))
	if u < 1 {
		u = 1
	}
	return u
}
