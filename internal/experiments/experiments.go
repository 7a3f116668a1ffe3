// Package experiments regenerates every table and figure of the paper's
// evaluation (`episim figures -list` prints the index). Each experiment is a
// function that computes the artifact's data and prints the same
// rows/series the paper reports, quoting the paper's figure where it gives
// one; `episim figures` runs them, and cmd/episim's TestFiguresGolden pins
// what they print in quick mode.
package experiments

import (
	"fmt"
	"io"
	"sync"

	episim "repro"
	"repro/internal/loadmodel"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// Options tunes experiment execution. The experiments take every field as
// given; Defaults returns the paper's.
type Options struct {
	// Scale is the population scale divisor for Table-I presets
	// (distribution analyses use AnalysisScale).
	Scale int
	// AnalysisScale is used by the distribution/bound figures that need
	// bigger tails.
	AnalysisScale int
	// Seed drives all generation.
	Seed uint64
	// Quick shrinks state sets and sweeps for CI/benchmarks.
	Quick bool
}

// Defaults returns the options `episim figures` runs with.
func Defaults() Options {
	return Options{Scale: 1000, AnalysisScale: 300, Seed: 20140519} // IPDPS 2014 conference date
}

// sizes are the state sets and sweeps of a run.
type sizes struct {
	table1      []synthpop.Preset
	states      []string // Table II and Figures 3, 4, 7, 8, 14
	fig5        []synthpop.Preset
	partitions  []int // Figures 4 and 8, see partitionSweep
	commRanks   []int // Figures 9-12
	fig13States []string
	modules     []int // Figure 13, see moduleSweep
	cutRanks    []int // Figure 14
	usDivisor   int   // the headline's US population is 1:(Scale*usDivisor)
	usModules   []int
	desVisitors []int // Figure 3(a,b): visitors per measured location-day
	desPoints   int   // measured location-days per visitor count
}

// sizes returns the paper's sizes, or with Quick a reduced set that runs in
// seconds.
func (o Options) sizes() sizes {
	if o.Quick {
		return sizes{
			table1:      synthpop.TableIPresets[5:], // IA, AR, WY
			states:      []string{"IA", "AR", "WY"},
			fig5:        synthpop.StateFamily()[:8],
			partitions:  []int{12, 192, 3072, 49152},
			commRanks:   []int{256, 1024},
			fig13States: []string{"IA"},
			modules:     []int{1, 16, 256, 2048},
			cutRanks:    []int{48, 768},
			usDivisor:   4,
			usModules:   []int{1, 64, 1024, 8192},
			desVisitors: []int{8, 32, 128, 512},
			desPoints:   3,
		}
	}
	return sizes{
		table1:      synthpop.TableIPresets,
		states:      []string{"CA", "NY", "MI", "NC", "IA", "AR", "WY"},
		fig5:        synthpop.StateFamily(),
		partitions:  []int{12, 48, 192, 768, 3072, 12288, 49152, 196608},
		commRanks:   []int{64, 256, 1024, 4096},
		fig13States: []string{"CA", "MI", "IA", "AR"},
		modules:     []int{1, 4, 16, 64, 256, 1024, 4096, 16384},
		cutRanks:    []int{48, 768, 3072},
		usDivisor:   1,
		usModules:   []int{1, 16, 256, 4096, 16384, 65536},
		desVisitors: []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		desPoints:   6,
	}
}

// partitionSweep returns the partition counts of Figures 4/8 (12..196,608
// in the paper) up to the first that reaches numItems.
func (s sizes) partitionSweep(numItems int) []int {
	var out []int
	for _, k := range s.partitions {
		out = append(out, k)
		if k >= numItems {
			break
		}
	}
	return out
}

// moduleSweep returns the core-module counts of Figure 13 that leave the
// partitioner at least 4 vertices per part.
func (s sizes) moduleSweep(vertices int) []int {
	var out []int
	for _, k := range s.modules {
		if k > 1 && vertices/k < 4 {
			break
		}
		out = append(out, k)
	}
	return out
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

// maxPartitions is the paper's largest partition count, the one splitLoc
// splits for in Figures 5, 7 and 8.
const maxPartitions = 196608

// located is a state's population, split for up to some number of
// partitions or as generated, with its per-location static loads (paper
// model units: Blue Waters seconds), their total and their maximum.
type located struct {
	pop        *synthpop.Population
	split      splitloc.Stats
	loads      []float64
	total, max float64
}

// locate returns the named state at 1:scale, after splitLoc for up to
// parts partitions when parts > 0.
func locate(name string, scale int, seed uint64, parts int) (located, error) {
	pop, err := statePop(name, scale, seed)
	if err != nil {
		return located{}, err
	}
	l := located{pop: pop}
	if parts > 0 {
		if l.pop, l.split, err = splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: parts}); err != nil {
			return located{}, err
		}
	}
	l.loads = loadmodel.Paper().VisitLoads(l.pop.VisitCountsPerLocation())
	for _, x := range l.loads {
		l.total += x
		l.max = max(l.max, x)
	}
	return l, nil
}

// degrees returns the unique visitors of each of pop's locations.
func degrees(pop *synthpop.Population) []float64 {
	out := make([]float64, 0, pop.NumLocations())
	for _, d := range pop.UniqueVisitorsPerLocation() {
		out = append(out, float64(d))
	}
	return out
}

// price builds pop's placement under po and returns its modeled time per
// day (s) under each of perfs.
func price(pop *synthpop.Population, po episim.PlacementOptions, perfs ...episim.PerfOptions) ([]float64, error) {
	pl, err := episim.BuildPlacement(pop, po)
	if err != nil {
		return nil, err
	}
	ts := make([]float64, len(perfs))
	for i, perf := range perfs {
		ts[i] = episim.ModelDayTime(pl, perf).Total
	}
	return ts, nil
}
