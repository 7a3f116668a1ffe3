package experiments

import (
	"fmt"
	"io"

	"repro/internal/splitloc"
	"repro/internal/stats"
)

// runFig6 demonstrates the two node-splitting methods of Figure 6 on the
// Figure 2 example graph: splitting hub node 1 into nodes 1 and 14 by
// dividing its edges (a) versus retaining them (b).
func runFig6(w io.Writer, opt Options) error {
	g := fig2Graph()
	maxDeg := func(gr interface {
		NumVertices() int
		Degree(int) int
	}) int {
		m := 0
		for v := 0; v < gr.NumVertices(); v++ {
			if d := gr.Degree(v); d > m {
				m = d
			}
		}
		return m
	}
	fmt.Fprintf(w, "Figure 6 — splitting heavy node 1 (weight 8, degree %d) into two\n", g.Degree(0))
	div := splitloc.DivideEdgesVertex(g, 0, 2)
	ret := splitloc.RetainEdgesVertex(g, 0, 2)
	fmt.Fprintf(w, "(a) divide edges: vertices %d->%d, edges %d->%d, max degree %d->%d, fragment weights %d/%d\n",
		g.NumVertices(), div.NumVertices(), g.NumEdges(), div.NumEdges(),
		maxDeg(g), maxDeg(div), div.VertexWeight(0, 0), div.VertexWeight(13, 0))
	fmt.Fprintf(w, "(b) retain edges: vertices %d->%d, edges %d->%d, max degree %d->%d, fragment weights %d/%d\n",
		g.NumVertices(), ret.NumVertices(), g.NumEdges(), ret.NumEdges(),
		maxDeg(g), maxDeg(ret), ret.VertexWeight(0, 0), ret.VertexWeight(13, 0))
	fmt.Fprintf(w, "divide-edges halves both load and communication; retain-edges halves only load\n")
	fmt.Fprintf(w, "(EpiSimdemics uses divide-edges: people only interact within a sublocation)\n")
	return nil
}

// runFig7 regenerates Figure 7: the degree and static load distributions
// after graph modification (GP-splitLoc), with the reduction statistics
// the paper quotes: d_max down ~54x on average (max 341x, min 12x), graph
// size up at most 5.25%.
func runFig7(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	states := tableStates(opt.Quick)
	fmt.Fprintf(w, "Figure 7 — distributions after splitLoc (1:%d scale)\n", opt.AnalysisScale)
	var degReductions, growths []float64
	for _, name := range states {
		pop, err := statePop(name, opt.AnalysisScale, opt.Seed)
		if err != nil {
			return err
		}
		split, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 196608})
		if err != nil {
			return err
		}
		degReductions = append(degReductions, float64(st.MaxDegreePre)/float64(st.MaxDegreePost))
		growths = append(growths, st.GrowthFrac)

		fmt.Fprintf(w, "%-4s split %d locations into %d; d_max %d -> %d (%.0fx); D grew %.2f%%\n",
			name, st.NumSplit, st.NumFragments, st.MaxDegreePre, st.MaxDegreePost,
			float64(st.MaxDegreePre)/float64(st.MaxDegreePost), st.GrowthFrac*100)

		degrees := make([]float64, 0, split.NumLocations())
		for _, d := range split.UniqueVisitorsPerLocation() {
			degrees = append(degrees, float64(d))
		}
		fmt.Fprintf(w, "  (a) degree ")
		printCCDFRow(w, name, degrees)
		fmt.Fprintf(w, "  (b) load   ")
		printCCDFRow(w, name, locationLoads(split))
	}
	d := stats.Summarize(degReductions)
	gr := stats.Summarize(growths)
	fmt.Fprintf(w, "d_max reduction avg %.0fx (paper: 54x avg, 341x max, 12x min); growth avg %.2f%% max %.2f%% (paper: <=5.25%%)\n",
		d.Mean, gr.Mean*100, gr.Max*100)
	return nil
}
