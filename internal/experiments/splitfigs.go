package experiments

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/splitloc"
	"repro/internal/stats"
)

// runFig6 demonstrates the two node-splitting methods of Figure 6 on the
// Figure 2 example graph: splitting hub node 1 into nodes 1 and 14 by
// dividing its edges (a) versus retaining them (b).
func runFig6(w io.Writer, opt Options) error {
	g := fig2Graph()
	maxDeg := func(gr *graph.Graph) int {
		m := 0
		for v := 0; v < gr.NumVertices(); v++ {
			m = max(m, gr.Degree(v))
		}
		return m
	}
	fmt.Fprintf(w, "Figure 6 — splitting heavy node 1 (weight 8, degree %d) into two\n", g.Degree(0))
	for _, split := range []struct {
		label string
		g     *graph.Graph
	}{
		{"(a) divide edges", splitloc.DivideEdgesVertex(g, 0, 2)},
		{"(b) retain edges", splitloc.RetainEdgesVertex(g, 0, 2)},
	} {
		fmt.Fprintf(w, "%s: vertices %d->%d, edges %d->%d, max degree %d->%d, fragment weights %d/%d\n",
			split.label, g.NumVertices(), split.g.NumVertices(), g.NumEdges(), split.g.NumEdges(),
			maxDeg(g), maxDeg(split.g), split.g.VertexWeight(0, 0), split.g.VertexWeight(13, 0))
	}
	fmt.Fprintf(w, "divide-edges halves both load and communication; retain-edges halves only load\n")
	fmt.Fprintf(w, "(EpiSimdemics uses divide-edges: people only interact within a sublocation)\n")
	return nil
}

// runFig7 regenerates Figure 7: the degree and static load distributions
// after graph modification (GP-splitLoc), with the reduction statistics
// the paper quotes: d_max down ~54x on average (max 341x, min 12x), graph
// size up at most 5.25%.
func runFig7(w io.Writer, opt Options) error {
	fmt.Fprintf(w, "Figure 7 — distributions after splitLoc (1:%d scale)\n", opt.AnalysisScale)
	var degReductions, growths []float64
	for _, name := range opt.sizes().states {
		l, err := locate(name, opt.AnalysisScale, opt.Seed, maxPartitions)
		if err != nil {
			return err
		}
		st := l.split
		reduction := float64(st.MaxDegreePre) / float64(st.MaxDegreePost)
		degReductions = append(degReductions, reduction)
		growths = append(growths, st.GrowthFrac)
		fmt.Fprintf(w, "%-4s split %d locations into %d; d_max %d -> %d (%.0fx); D grew %.2f%%\n",
			name, st.NumSplit, st.NumFragments, st.MaxDegreePre, st.MaxDegreePost, reduction, st.GrowthFrac*100)
		fmt.Fprintf(w, "  (a) degree ")
		printCCDFRow(w, name, degrees(l.pop))
		fmt.Fprintf(w, "  (b) load   ")
		printCCDFRow(w, name, l.loads)
	}
	d := stats.Summarize(degReductions)
	gr := stats.Summarize(growths)
	fmt.Fprintf(w, "d_max reduction avg %.0fx (paper: 54x avg, 341x max, 12x min); growth avg %.2f%% max %.2f%% (paper: <=5.25%%)\n",
		d.Mean, gr.Mean*100, gr.Max*100)
	return nil
}
