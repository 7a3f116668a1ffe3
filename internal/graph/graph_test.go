package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// buildTriangle returns the triangle graph 0-1-2 with distinct weights.
func buildTriangle() *Graph {
	b := NewBuilder(3, 1)
	b.SetVertexWeight(0, 0, 10)
	b.SetVertexWeight(1, 0, 20)
	b.SetVertexWeight(2, 0, 30)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 7)
	b.AddEdge(0, 2, 9)
	return b.Build()
}

func TestBuildTriangle(t *testing.T) {
	g := buildTriangle()
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 {
		t.Fatal("triangle degrees wrong")
	}
	if g.EdgeWeightBetween(0, 1) != 5 || g.EdgeWeightBetween(1, 0) != 5 {
		t.Fatal("edge weight 0-1 wrong")
	}
	if g.EdgeWeightBetween(0, 2) != 9 {
		t.Fatal("edge weight 0-2 wrong")
	}
	if g.TotalEdgeWeight() != 21 {
		t.Fatalf("total edge weight = %d", g.TotalEdgeWeight())
	}
	if g.TotalVertexWeight(0) != 60 {
		t.Fatalf("total vertex weight = %d", g.TotalVertexWeight(0))
	}
}

func TestDuplicateEdgesMerge(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 0, 4)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("want 1 merged edge, got %d", g.NumEdges())
	}
	if g.EdgeWeightBetween(0, 1) != 8 {
		t.Fatalf("merged weight = %d, want 8", g.EdgeWeightBetween(0, 1))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddEdge(0, 0, 5)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("self loop not dropped: %d edges", g.NumEdges())
	}
}

func TestIsolatedVertices(t *testing.T) {
	b := NewBuilder(5, 2)
	b.AddEdge(1, 3, 2)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 0 || g.Degree(4) != 0 {
		t.Fatal("isolated vertex has nonzero degree")
	}
	if g.NumConstraints() != 2 {
		t.Fatal("nCon lost")
	}
}

func TestEdgeWeightBetweenAbsent(t *testing.T) {
	g := buildTriangle()
	b := NewBuilder(4, 1)
	b.AddEdge(0, 1, 1)
	g2 := b.Build()
	if g2.EdgeWeightBetween(0, 3) != 0 {
		t.Fatal("absent edge should have weight 0")
	}
	_ = g
}

func TestVertexWeightVector(t *testing.T) {
	b := NewBuilder(2, 3)
	b.SetVertexWeight(1, 0, 1)
	b.SetVertexWeight(1, 1, 2)
	b.SetVertexWeight(1, 2, 7)
	g := b.Build()
	w := g.VertexWeights(1)
	if w[0] != 1 || w[1] != 2 || w[2] != 7 {
		t.Fatalf("weights = %v", w)
	}
	g.SetVertexWeight(1, 0, 9)
	if g.VertexWeight(1, 0) != 9 {
		t.Fatal("SetVertexWeight did not stick")
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(seed uint64, n, m int) *Graph {
	s := xrand.NewStream(seed)
	b := NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 0, int64(s.Intn(100)+1))
		b.SetVertexWeight(v, 1, int64(s.Intn(100)+1))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(s.Intn(n), s.Intn(n), int32(s.Intn(10)+1))
	}
	return b.Build()
}

func TestRandomGraphsValidate(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 50, 200)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSortedProperty(t *testing.T) {
	g := randomGraph(7, 100, 500)
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.Neighbors(v)
		if len(nbrs) != len(ws) {
			t.Fatal("neighbor/weight length mismatch")
		}
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("adjacency of %d not sorted", v)
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildTriangle()
	sub := g.InducedSubgraph([]int32{0, 2})
	if sub.NumVertices() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("subgraph: %d vertices %d edges", sub.NumVertices(), sub.NumEdges())
	}
	if sub.EdgeWeightBetween(0, 1) != 9 {
		t.Fatalf("subgraph edge weight = %d", sub.EdgeWeightBetween(0, 1))
	}
	if sub.VertexWeight(1, 0) != 30 {
		t.Fatal("vertex weight not carried to subgraph")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphPreservesTotals(t *testing.T) {
	g := randomGraph(3, 60, 300)
	all := make([]int32, g.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	sub := g.InducedSubgraph(all)
	if sub.NumEdges() != g.NumEdges() {
		t.Fatalf("full induced subgraph lost edges: %d vs %d", sub.NumEdges(), g.NumEdges())
	}
	if sub.TotalEdgeWeight() != g.TotalEdgeWeight() {
		t.Fatal("full induced subgraph changed edge weight")
	}
	if sub.TotalVertexWeight(0) != g.TotalVertexWeight(0) {
		t.Fatal("full induced subgraph changed vertex weight")
	}
}

// buildViaSort is the obvious Build — one slice of entries per vertex,
// sorted by comparison, duplicates summed — and the oracle of
// TestBuildMatchesSortReference.
func buildViaSort(b *Builder) *Graph {
	type entry struct {
		id int32
		w  int32
	}
	rows := make([][]entry, b.numV)
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		rows[u] = append(rows[u], entry{v, w})
		rows[v] = append(rows[v], entry{u, w})
	}
	g := &Graph{numV: b.numV, nCon: b.nCon, xadj: make([]int32, b.numV+1), vw: append([]int64(nil), b.vw...)}
	for v, row := range rows {
		sort.Slice(row, func(i, j int) bool { return row[i].id < row[j].id })
		for i, e := range row {
			if i > 0 && row[i-1].id == e.id {
				g.edgeW[len(g.edgeW)-1] += e.w
				continue
			}
			g.adj = append(g.adj, e.id)
			g.edgeW = append(g.edgeW, e.w)
		}
		g.xadj[v+1] = int32(len(g.adj))
	}
	return g
}

func sameCSR(a, b *Graph) bool {
	return a.nCon == b.nCon && slices.Equal(a.xadj, b.xadj) && slices.Equal(a.adj, b.adj) &&
		slices.Equal(a.edgeW, b.edgeW) && slices.Equal(a.vw, b.vw)
}

// Duplicate edges in both orientations, self loops and isolated vertices:
// 40 vertices under 400 draws repeat most pairs.
func TestBuildMatchesSortReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s := xrand.NewStream(seed)
		n := 40 * int(seed)
		b := NewBuilder(n+3, 2) // the last three vertices stay isolated
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, int(seed)%2, int64(s.Intn(9)))
		}
		for i := 0; i < 400; i++ {
			b.AddEdge(s.Intn(n), s.Intn(n), int32(s.Intn(5)))
		}
		got, want := b.Build(), buildViaSort(b)
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("seed %d: Build differs from the sort-based reference", seed)
		}
	}
}

// inducedViaBuilder is InducedSubgraph as it was before it wrote CSR
// itself (a hash map for the renumbering, every edge through the Builder):
// the oracle of TestInducedSubgraphMatchesBuilder.
func inducedViaBuilder(g *Graph, vertices []int32) *Graph {
	toNew := make(map[int32]int32, len(vertices))
	for i, v := range vertices {
		toNew[v] = int32(i)
	}
	b := NewBuilder(len(vertices), g.nCon)
	for i, v := range vertices {
		copy(b.vw[i*g.nCon:(i+1)*g.nCon], g.VertexWeights(int(v)))
		nbrs, ws := g.Neighbors(int(v))
		for j, u := range nbrs {
			if nu, ok := toNew[u]; ok && int32(i) < nu { // each undirected edge once
				b.AddEdge(i, int(nu), ws[j])
			}
		}
	}
	return b.Build()
}

func TestInducedSubgraphMatchesBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := randomGraph(seed, 200, 900)
		s := xrand.NewStream(seed)
		var asc []int32
		for v := 0; v < g.NumVertices(); v++ {
			if s.Intn(3) > 0 {
				asc = append(asc, int32(v))
			}
		}
		shuffled := make([]int32, len(asc))
		for i, j := range s.Perm(len(asc)) {
			shuffled[i] = asc[j]
		}
		for name, sel := range map[string][]int32{"ascending": asc, "shuffled": shuffled, "empty": nil} {
			got, want := g.InducedSubgraph(sel), inducedViaBuilder(g, sel)
			if err := got.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if !sameCSR(got, want) {
				t.Fatalf("seed %d %s: subgraph differs from the builder-built one", seed, name)
			}
		}
	}
}

func TestNewFromCSR(t *testing.T) {
	// Path 0-1-2.
	g := NewFromCSR(1,
		[]int32{0, 1, 3, 4},
		[]int32{1, 0, 2, 1},
		[]int32{1, 1, 1, 1},
		[]int64{1, 1, 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range endpoint")
		}
	}()
	b := NewBuilder(2, 1)
	b.AddEdge(0, 5, 1)
}

// Edge weights are int32 because every graph's total fits one; a Builder
// given more refuses to build rather than wrap a merged weight, and a
// negative weight is refused where it is added.
func TestBuilderRejectsWeightPastInt32(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	b := NewBuilder(3, 1)
	b.AddEdge(0, 1, math.MaxInt32)
	if w := b.Build().TotalEdgeWeight(); w != math.MaxInt32 {
		t.Fatalf("total edge weight %d, want %d", w, math.MaxInt32)
	}
	b.AddEdge(1, 0, 1) // merges into {0,1}, which would wrap
	mustPanic("merged weight past the range", func() { b.Build() })
	b = NewBuilder(3, 1)
	b.AddEdge(0, 1, math.MaxInt32/2+1)
	b.AddEdge(1, 2, math.MaxInt32/2+1) // no edge past the range, their total is
	mustPanic("total past the range", func() { b.Build() })
	mustPanic("negative weight", func() { NewBuilder(2, 1).AddEdge(0, 1, -1) })
}

func BenchmarkBuild(b *testing.B) {
	s := xrand.NewStream(1)
	n, m := 10000, 60000
	us := make([]int, m)
	vs := make([]int, m)
	for i := 0; i < m; i++ {
		us[i] = s.Intn(n)
		vs[i] = s.Intn(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(n, 2)
		for j := 0; j < m; j++ {
			bl.AddEdge(us[j], vs[j], 1)
		}
		g := bl.Build()
		_ = g
	}
}
