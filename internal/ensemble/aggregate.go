package ensemble

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// Dist summarizes one scalar metric across a cell's replicates: moments,
// a normal-approximation confidence interval on the mean, and the
// sweep's quantiles.
type Dist struct {
	Mean      float64   `json:"mean"`
	Std       float64   `json:"std"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
	CILo      float64   `json:"ci_lo"`
	CIHi      float64   `json:"ci_hi"`
	Quantiles []float64 `json:"quantiles"`
}

func distOf(xs []float64, qs []float64, confidence float64) Dist {
	sum := stats.Summarize(xs)
	ci := stats.MeanCI(xs, confidence)
	return Dist{
		Mean: sum.Mean, Std: ci.Std, Min: sum.Min, Max: sum.Max,
		CILo: ci.Lo, CIHi: ci.Hi,
		Quantiles: stats.Quantiles(xs, qs),
	}
}

// CellResult is the aggregated outcome of one sweep cell.
type CellResult struct {
	// Index is the cell's position in the spec's grid order; streaming
	// consumers use it to slot results arriving in completion order.
	Index      int    `json:"index"`
	Label      string `json:"label"`
	Population string `json:"population"`
	Placement  string `json:"placement"`
	Model      string `json:"model"`
	Scenario   string `json:"scenario"`
	// Intervention is the cell's intervention-axis branch name; empty (and
	// omitted) on legacy grids, so version 1 results keep their bytes.
	Intervention string `json:"intervention,omitempty"`
	Replicates   int    `json:"replicates"`
	Days         int    `json:"days"`
	// Error is set (and the aggregates below left empty) when the cell
	// failed: any replicate's population build, placement build or
	// simulation returned an error.
	Error string `json:"error,omitempty"`

	AttackRate      Dist `json:"attack_rate"`
	PeakDay         Dist `json:"peak_day"`
	PeakHeight      Dist `json:"peak_height"`
	TotalInfections Dist `json:"total_infections"`

	// MeanCurve[d] is the mean daily new-infection count over replicates;
	// QuantileCurves[i][d] is the Spec.Quantiles[i] quantile of day d.
	MeanCurve      []float64   `json:"mean_curve"`
	QuantileCurves [][]float64 `json:"quantile_curves"`

	// KernelDays counts simulated days per executing kernel, summed over
	// replicates; nil when every replicate ran the default dense kernel.
	KernelDays map[string]int64 `json:"kernel_days,omitempty"`
}

// aggregator accumulates one cell's replicates. Only the epidemic curve
// and four scalars survive each Result — the per-day phase statistics,
// count maps and the Result itself are dropped as soon as a replicate is
// folded in, keeping a sweep's footprint at replicates × days numbers
// per cell no matter how heavy the simulations are.
//
// Every slot is indexed by replicate, so concurrent workers write
// disjoint memory and the finalized aggregate is independent of
// completion order — the root of the sweep's byte-identical determinism
// across worker counts.
type aggregator struct {
	curves     [][]int64 // [replicate][day]
	attack     []float64
	peakDay    []float64
	peakHeight []float64
	total      []float64
	kernelDays []map[string]int64 // [replicate], nil for default-kernel runs
}

func newAggregator(replicates int) *aggregator {
	return &aggregator{
		curves:     make([][]int64, replicates),
		attack:     make([]float64, replicates),
		peakDay:    make([]float64, replicates),
		peakHeight: make([]float64, replicates),
		total:      make([]float64, replicates),
		kernelDays: make([]map[string]int64, replicates),
	}
}

// add folds one replicate's Result into the aggregate.
func (a *aggregator) add(replicate int, res *core.Result) {
	curve := res.EpiCurve()
	a.curves[replicate] = curve
	a.attack[replicate] = res.AttackRate
	a.total[replicate] = float64(res.TotalInfections)
	day, height := peakOf(curve)
	a.peakDay[replicate] = float64(day)
	a.peakHeight[replicate] = float64(height)
	a.kernelDays[replicate] = res.KernelDays
}

// peakOf returns the day and height of a curve's maximum (first day on
// ties; 0, 0 for flat-zero curves).
func peakOf(curve []int64) (day int, height int64) {
	for d, v := range curve {
		if v > height {
			height, day = v, d
		}
	}
	return day, height
}

// finalize reduces the accumulated replicates to a CellResult.
func (a *aggregator) finalize(cell Cell, qs []float64, confidence float64) CellResult {
	days := 0
	for _, c := range a.curves {
		if len(c) > days {
			days = len(c)
		}
	}
	mean := make([]float64, days)
	quants := make([][]float64, len(qs))
	for i := range quants {
		quants[i] = make([]float64, days)
	}
	col := make([]float64, len(a.curves))
	for d := 0; d < days; d++ {
		for r, c := range a.curves {
			if d < len(c) {
				col[r] = float64(c[d])
			} else {
				col[r] = 0
			}
		}
		mean[d] = stats.Summarize(col).Mean
		for i, q := range stats.Quantiles(col, qs) {
			quants[i][d] = q
		}
	}
	return CellResult{
		Index:        cell.Index,
		Label:        cell.Label(),
		Population:   cell.Population.Label(),
		Placement:    cell.Placement.Label(),
		Model:        cell.Model.Name,
		Scenario:     cell.Scenario.Name,
		Intervention: cell.InterventionName(),
		Replicates:   len(a.curves),
		Days:         days,

		AttackRate:      distOf(a.attack, qs, confidence),
		PeakDay:         distOf(a.peakDay, qs, confidence),
		PeakHeight:      distOf(a.peakHeight, qs, confidence),
		TotalInfections: distOf(a.total, qs, confidence),

		MeanCurve:      mean,
		QuantileCurves: quants,
		KernelDays:     mergeKernelDays(a.kernelDays),
	}
}

// mergeKernelDays sums per-replicate kernel-day counters; nil when no
// replicate reported any (the default dense kernel).
func mergeKernelDays(per []map[string]int64) map[string]int64 {
	var out map[string]int64
	for _, kd := range per {
		for k, n := range kd {
			if out == nil {
				out = make(map[string]int64)
			}
			out[k] += n
		}
	}
	return out
}
