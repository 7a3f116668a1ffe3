// Package experiments regenerates every table and figure of the paper's
// evaluation (`episim figures -list` prints the index). Each experiment is a
// function that computes the artifact's data and prints the same
// rows/series the paper reports, quoting the paper's figure where it gives
// one; `episim figures` exposes them on the command line and bench_test.go
// wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/loadmodel"
	"repro/internal/synthpop"
)

// Options tunes experiment execution.
type Options struct {
	// Scale is the population scale divisor for Table-I presets (default
	// 1000; distribution analyses use AnalysisScale).
	Scale int
	// AnalysisScale is used by the distribution/bound figures that need
	// bigger tails (default 300).
	AnalysisScale int
	// Seed drives all generation.
	Seed uint64
	// Quick shrinks state sets and sweeps for CI/benchmarks.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1000
	}
	if o.AnalysisScale <= 0 {
		o.AnalysisScale = 300
	}
	if o.Seed == 0 {
		o.Seed = 20140519 // IPDPS 2014 conference date
	}
	return o
}

// Experiment is a runnable artifact regenerator.
type Experiment struct {
	Name string
	Desc string
	Run  func(w io.Writer, opt Options) error
}

// All returns the registry of experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: population sizes of the Table-I regions (generated at scale)", runTable1},
		{"table2", "Table II: total and maximum location load before/after splitLoc", runTable2},
		{"fig2", "Figure 2: load-optimal vs cut-optimal 5-way partitioning of the example graph", runFig2},
		{"fig3", "Figure 3: static/dynamic load model fits and degree/load distributions", runFig3},
		{"fig4", "Figure 4: upper bound on estimated speedup vs partitions (GP)", runFig4},
		{"fig5", "Figure 5: max S_ub/D across 49 states, before/after decomposition", runFig5},
		{"fig6", "Figure 6: divide-edges vs retain-edges node splitting", runFig6},
		{"fig7", "Figure 7: degree and load distributions after splitLoc", runFig7},
		{"fig8", "Figure 8: upper bound on estimated speedup after splitLoc", runFig8},
		{"fig9_11", "Figures 9-11: ablation of SMP mode, completion detection and aggregation", runFig9to11},
		{"fig12", "Figure 12: RR no-opt vs RR (combined communication optimizations)", runFig12},
		{"fig13", "Figure 13: strong scaling, time/day vs core-modules, 4 states x 4 strategies", runFig13},
		{"fig14", "Figure 14: maximum per-partition edge cut (GP-splitLoc)", runFig14},
		{"headline", "Headline: speedups and efficiencies vs the prior state of the art", runHeadline},
	}
}

// ByName resolves one experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// popCache memoizes generated populations: several figures share states.
var (
	popMu    sync.Mutex
	popCache = map[string]*synthpop.Population{}
)

// statePop returns the named state preset at 1:scale (cached).
func statePop(name string, scale int, seed uint64) (*synthpop.Population, error) {
	key := fmt.Sprintf("%s@%d@%d", name, scale, seed)
	popMu.Lock()
	defer popMu.Unlock()
	if p, ok := popCache[key]; ok {
		return p, nil
	}
	p, err := synthpop.GenerateState(name, scale, seed)
	if err != nil {
		return nil, err
	}
	popCache[key] = p
	return p, nil
}

// tableStates returns the seven state names of Table II / Figures 4, 8, 14.
func tableStates(quick bool) []string {
	if quick {
		return []string{"IA", "AR", "WY"}
	}
	return []string{"CA", "NY", "MI", "NC", "IA", "AR", "WY"}
}

// locationLoads returns per-location static loads (paper model units:
// Blue Waters seconds) for a population.
func locationLoads(pop *synthpop.Population) []float64 {
	return loadmodel.Paper().VisitLoads(pop.VisitCountsPerLocation())
}

// sumMax returns the total and maximum of a load vector.
func sumMax(loads []float64) (total, max float64) {
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	return total, max
}

// partitionSweep returns the partition-count sweep of Figures 4/8
// (12..196,608 in the paper), capped so at least minPerPart items remain
// per partition on average.
func partitionSweep(numItems int, quick bool) []int {
	full := []int{12, 48, 192, 768, 3072, 12288, 49152, 196608}
	if quick {
		full = []int{12, 192, 3072, 49152}
	}
	var out []int
	for _, k := range full {
		out = append(out, k)
		if k >= numItems {
			break
		}
	}
	return out
}

// fmtSI renders large counts compactly (12,288 → "12288"); kept trivial so
// rows are grep-able.
func fmtSI(v int) string { return fmt.Sprintf("%d", v) }
