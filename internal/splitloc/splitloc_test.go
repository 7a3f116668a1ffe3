package splitloc

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/synthpop"
)

func genPop(t testing.TB) *synthpop.Population {
	t.Helper()
	pop := synthpop.Generate(synthpop.DefaultConfig("split-test", 20000, 5000, 7))
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestSublocationWeightsPositive(t *testing.T) {
	pop := genPop(t)
	w := SublocationWeights(pop, 0.01)
	for ty, v := range w {
		if v < 0 {
			t.Fatalf("type %d weight %v negative", ty, v)
		}
	}
	// Homes and schools exist in every synthetic population.
	if w[synthpop.Home] == 0 || w[synthpop.School] == 0 {
		t.Fatalf("weights zero for populated types: %v", w)
	}
}

func TestAutoThreshold(t *testing.T) {
	locW := []float64{1, 2, 3, 4, 1000}
	th := AutoThreshold(locW, 5, 10)
	// total=1010, /10 = 101 > maxSubW=5.
	if th != 101 {
		t.Fatalf("threshold = %v, want 101", th)
	}
	th2 := AutoThreshold(locW, 500, 10)
	if th2 != 500 {
		t.Fatalf("threshold = %v, want maxSubW 500", th2)
	}
}

func TestSplitPopulationReducesTail(t *testing.T) {
	pop := genPop(t)
	split, st, err := SplitPopulation(pop, Options{MaxPartitions: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.NumSplit == 0 {
		t.Fatal("heavy-tailed population should have splittable locations")
	}
	if st.MaxDegreePost >= st.MaxDegreePre {
		t.Fatalf("d_max did not shrink: %d -> %d", st.MaxDegreePre, st.MaxDegreePost)
	}
	if st.MaxLocWeightPost >= st.MaxLocWeightPre {
		t.Fatalf("l_max did not shrink: %v -> %v", st.MaxLocWeightPre, st.MaxLocWeightPost)
	}
	if st.LocationsPost <= st.LocationsPre {
		t.Fatal("splitting must add locations")
	}
	// The paper reports growth at most 5.25%; generous cap here.
	if st.GrowthFrac > 0.30 {
		t.Fatalf("location growth %v too large", st.GrowthFrac)
	}
}

func TestSplitPreservesVisitMultiset(t *testing.T) {
	pop := genPop(t)
	split, _, err := SplitPopulation(pop, Options{MaxPartitions: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if split.NumVisits() != pop.NumVisits() {
		t.Fatalf("visit count changed: %d -> %d", pop.NumVisits(), split.NumVisits())
	}
	// Each visit must map to the same original (location origin, original
	// sublocation, person, times).
	type key struct {
		origin  int32
		origSub int32
		person  int32
		start   int16
		end     int16
	}
	count := map[key]int{}
	for _, v := range pop.Visits {
		l := pop.Locations[v.Loc]
		count[key{l.Origin, l.SubBase + v.Sub, v.Person, v.Start, v.End}]++
	}
	for _, v := range split.Visits {
		l := split.Locations[v.Loc]
		k := key{l.Origin, l.SubBase + v.Sub, v.Person, v.Start, v.End}
		count[k]--
		if count[k] < 0 {
			t.Fatalf("visit %+v not present in original", k)
		}
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("visit %+v lost in split (count %d)", k, c)
		}
	}
}

func TestSplitFragmentsPartitionSublocations(t *testing.T) {
	pop := genPop(t)
	split, st, err := SplitPopulation(pop, Options{MaxPartitions: 4096})
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	// Group fragments by origin: their [SubBase, SubBase+NumSub) ranges
	// must tile the original location's sublocations without overlap.
	frags := map[int32][]synthpop.Location{}
	for _, l := range split.Locations {
		frags[l.Origin] = append(frags[l.Origin], l)
	}
	for origin, ls := range frags {
		orig := pop.Locations[origin]
		var totalSub int32
		covered := make([]bool, orig.NumSub)
		for _, l := range ls {
			totalSub += l.NumSub
			for s := l.SubBase; s < l.SubBase+l.NumSub; s++ {
				if s < 0 || int(s) >= len(covered) {
					t.Fatalf("fragment of %d covers sublocation %d outside [0,%d)", origin, s, orig.NumSub)
				}
				if covered[s] {
					t.Fatalf("fragment of %d double-covers sublocation %d", origin, s)
				}
				covered[s] = true
			}
		}
		if totalSub != orig.NumSub {
			t.Fatalf("origin %d: fragments cover %d sublocations, want %d", origin, totalSub, orig.NumSub)
		}
	}
}

func TestSplitHomesStayValid(t *testing.T) {
	pop := genPop(t)
	split, _, err := SplitPopulation(pop, Options{MaxPartitions: 1 << 20}) // aggressive
	if err != nil {
		t.Fatal(err)
	}
	for p := range split.Persons {
		home := split.Persons[p].Home
		l := split.Locations[home]
		if l.Type != synthpop.Home {
			t.Fatalf("person %d home now points at a %v", p, l.Type)
		}
		if l.Origin != pop.Locations[pop.Persons[p].Home].Origin {
			t.Fatalf("person %d home re-pointed to a different original location", p)
		}
	}
}

func TestSplitIdempotentUnderThreshold(t *testing.T) {
	pop := genPop(t)
	split, st1, err := SplitPopulation(pop, Options{MaxPartitions: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Splitting again with the same threshold must be a no-op: everything
	// is already under it.
	again, st2, err := SplitPopulation(split, Options{Threshold: st1.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumSplit != 0 {
		t.Fatalf("re-split found %d locations to split", st2.NumSplit)
	}
	if again.NumLocations() != split.NumLocations() {
		t.Fatal("re-split changed location count")
	}
}

func TestSplitExplicitThreshold(t *testing.T) {
	pop := genPop(t)
	_, stLoose, err := SplitPopulation(pop, Options{Threshold: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if stLoose.NumSplit != 0 {
		t.Fatal("huge threshold must split nothing")
	}
	_, stTight, err := SplitPopulation(pop, Options{MaxPartitions: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if stTight.NumSplit <= stLoose.NumSplit {
		t.Fatal("tight threshold must split more")
	}
}

// starGraph returns a hub-and-spoke graph: hub 0 with weight hubW, spokes
// weight 1, unit edges.
func starGraph(spokes int, hubW int64) *graph.Graph {
	b := graph.NewBuilder(spokes+1, 1)
	b.SetVertexWeight(0, 0, hubW)
	for v := 1; v <= spokes; v++ {
		b.SetVertexWeight(v, 0, 1)
		b.AddEdge(0, v, 1)
	}
	return b.Build()
}

func TestDivideEdgesVertex(t *testing.T) {
	g := starGraph(8, 8)
	split := DivideEdgesVertex(g, 0, 2)
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if split.NumVertices() != 10 {
		t.Fatalf("vertices = %d, want 10", split.NumVertices())
	}
	// Total edges preserved: each spoke still has exactly one edge.
	if split.NumEdges() != 8 {
		t.Fatalf("edges = %d, want 8", split.NumEdges())
	}
	// Degree of the heaviest fragment halves.
	maxDeg := 0
	for v := 0; v < split.NumVertices(); v++ {
		if d := split.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg != 4 {
		t.Fatalf("max degree after divide = %d, want 4", maxDeg)
	}
	// Weight conserved.
	if split.TotalVertexWeight(0) != g.TotalVertexWeight(0) {
		t.Fatal("vertex weight not conserved")
	}
}

func TestRetainEdgesVertex(t *testing.T) {
	g := starGraph(8, 8)
	split := RetainEdgesVertex(g, 0, 2)
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if split.NumVertices() != 10 {
		t.Fatalf("vertices = %d", split.NumVertices())
	}
	// Retain edges: every fragment keeps all 8 neighbors -> 16 edges.
	if split.NumEdges() != 16 {
		t.Fatalf("edges = %d, want 16 (communication not divided)", split.NumEdges())
	}
	// But load is still divided.
	if split.VertexWeight(0, 0) != 4 || split.VertexWeight(9, 0) != 4 {
		t.Fatalf("fragment weights %d/%d, want 4/4",
			split.VertexWeight(0, 0), split.VertexWeight(9, 0))
	}
}

func TestFigure6Contrast(t *testing.T) {
	// The defining contrast of Figure 6: divide-edges reduces both max
	// load and max degree; retain-edges reduces only max load.
	g := starGraph(12, 12)
	div := DivideEdgesVertex(g, 0, 3)
	ret := RetainEdgesVertex(g, 0, 3)
	maxDeg := func(gr *graph.Graph) int {
		m := 0
		for v := 0; v < gr.NumVertices(); v++ {
			if d := gr.Degree(v); d > m {
				m = d
			}
		}
		return m
	}
	if maxDeg(div) != 4 {
		t.Fatalf("divide-edges max degree = %d, want 4", maxDeg(div))
	}
	if maxDeg(ret) != 12 {
		t.Fatalf("retain-edges max degree = %d, want 12", maxDeg(ret))
	}
}
