package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestRoundRobin(t *testing.T) {
	p := RoundRobin(10, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Assign[0] != 0 || p.Assign[1] != 1 || p.Assign[2] != 2 || p.Assign[3] != 0 {
		t.Fatalf("assign = %v", p.Assign)
	}
	if p2 := RoundRobin(5, 0); p2.K != 1 {
		t.Fatal("k<1 should clamp to 1")
	}
}

func TestLPTBalances(t *testing.T) {
	loads := []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	p := LPT(loads, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sums := make([]int64, 3)
	for v, a := range p.Assign {
		sums[a] += loads[v]
	}
	// Total 55 over 3 parts: optimal makespan is 19; LPT guarantees <= 4/3·OPT.
	var max int64
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	if max > 25 {
		t.Fatalf("LPT makespan %d too large (sums %v)", max, sums)
	}
}

func TestLPTSingleHeavyItem(t *testing.T) {
	// One giant item dominates: max load must equal it — this is the l_max
	// bound at the heart of Section III-B.
	loads := []int64{1000, 1, 1, 1}
	p := LPT(loads, 4)
	sums := make([]int64, 4)
	for v, a := range p.Assign {
		sums[a] += loads[v]
	}
	var max int64
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	if max != 1000 {
		t.Fatalf("max = %d, want 1000", max)
	}
}

func TestLPTProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := xrand.NewStream(seed)
		n := 1 + s.Intn(60)
		k := 1 + s.Intn(8)
		loads := make([]int64, n)
		var total, maxItem int64
		for i := range loads {
			loads[i] = int64(s.Intn(100) + 1)
			total += loads[i]
			if loads[i] > maxItem {
				maxItem = loads[i]
			}
		}
		p := LPT(loads, k)
		if p.Validate() != nil {
			return false
		}
		sums := make([]int64, k)
		for v, a := range p.Assign {
			sums[a] += loads[v]
		}
		var max int64
		for _, s := range sums {
			if s > max {
				max = s
			}
		}
		// LPT bound: max <= total/k + maxItem (loose but always true).
		return max <= total/int64(k)+maxItem
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// fig2Graph builds the 13-vertex example of Figure 2: node 1 has weight 8
// and the most edges; nodes 7 and 9 have weight 1; all other nodes weight 2
// (weights chosen so the paper's stated totals hold: total load 24, and a
// 5-way balance-optimal split has max part load 8 = node 1 alone).
func fig2Graph() *graph.Graph {
	// Node 1 (index 0 here) is the hub connected to 8 spokes; remaining
	// vertices form small chains, mirroring the figure's structure.
	b := graph.NewBuilder(13, 1)
	w := []int64{8, 2, 2, 2, 2, 2, 1, 2, 1, 2, 2, 2, 2} // nodes 1..13
	for v, wt := range w {
		b.SetVertexWeight(v, 0, wt)
	}
	hub := 0
	for _, spoke := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		b.AddEdge(hub, spoke, 1)
	}
	b.AddEdge(9, 10, 1)
	b.AddEdge(10, 11, 1)
	b.AddEdge(11, 12, 1)
	b.AddEdge(1, 9, 1)
	b.AddEdge(5, 12, 1)
	return b.Build()
}

func TestEvaluateBasics(t *testing.T) {
	g := fig2Graph()
	p := RoundRobin(13, 5)
	q := Evaluate(g, p)
	if q.K != 5 || len(q.PartWeights) != 5 {
		t.Fatalf("quality shape wrong: %+v", q)
	}
	if q.TotalWeights[0] != 30 {
		t.Fatalf("total weight = %d, want 30", q.TotalWeights[0])
	}
	if q.EdgeCut < 0 || q.EdgeCut > q.TotalEdgeWeight {
		t.Fatalf("edge cut %d out of range", q.EdgeCut)
	}
	if q.MaxPartCut < q.EdgeCut/int64(q.K) {
		t.Fatalf("max part cut %d below average", q.MaxPartCut)
	}
}

func TestEvaluateAllCutVsNoCut(t *testing.T) {
	// Path graph 0-1-2-3: all in one part = cut 0; alternating = cut 3.
	b := graph.NewBuilder(4, 1)
	for v := 0; v < 4; v++ {
		b.SetVertexWeight(v, 0, 1)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	one := &Partitioning{K: 1, Assign: make([]int32, 4)}
	if q := Evaluate(g, one); q.EdgeCut != 0 {
		t.Fatalf("single part cut = %d", q.EdgeCut)
	}
	alt := &Partitioning{K: 2, Assign: []int32{0, 1, 0, 1}}
	if q := Evaluate(g, alt); q.EdgeCut != 3 {
		t.Fatalf("alternating cut = %d, want 3", q.EdgeCut)
	}
}

func TestSpeedupUpperBound(t *testing.T) {
	b := graph.NewBuilder(4, 1)
	for v := 0; v < 4; v++ {
		b.SetVertexWeight(v, 0, 10)
	}
	g := b.Build()
	perfect := &Partitioning{K: 4, Assign: []int32{0, 1, 2, 3}}
	if s := Evaluate(g, perfect).SpeedupUpperBound(0); s != 4 {
		t.Fatalf("perfect speedup = %v, want 4", s)
	}
	lumped := &Partitioning{K: 4, Assign: []int32{0, 0, 0, 0}}
	if s := Evaluate(g, lumped).SpeedupUpperBound(0); s != 1 {
		t.Fatalf("lumped speedup = %v, want 1", s)
	}
}

func TestFigure2Tradeoff(t *testing.T) {
	// The paper's Figure 2 point: balance-first partitioning (LPT) cuts
	// more edges but reaches lower max load than cut-first partitioning
	// (Multilevel with loose balance).
	g := fig2Graph()
	loads := make([]int64, g.NumVertices())
	for v := range loads {
		loads[v] = g.VertexWeight(v, 0)
	}
	balanced := LPT(loads, 5)
	qb := Evaluate(g, balanced)

	cutFirst := Multilevel(g, 5, Options{Imbalance: 0.9, Seed: 3})
	qc := Evaluate(g, cutFirst)

	// Balance-optimal: max part load must hit the l_max bound of 8.
	var maxB int64
	for _, pw := range qb.PartWeights {
		if pw[0] > maxB {
			maxB = pw[0]
		}
	}
	if maxB != 8 {
		t.Fatalf("LPT max load = %d, want 8 (node 1 alone)", maxB)
	}
	// Cut-first must cut fewer edges than balance-first (which severs the
	// whole hub).
	if qc.EdgeCut >= qb.EdgeCut {
		t.Fatalf("cut-first cut %d !< balance-first cut %d", qc.EdgeCut, qb.EdgeCut)
	}
}

func TestMultilevelValidAndBalanced(t *testing.T) {
	g := randomGraph(1, 600, 2400, 1)
	for _, k := range []int{2, 3, 7, 16} {
		p := Multilevel(g, k, Options{Seed: 42})
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.K != k {
			t.Fatalf("k=%d: K=%d", k, p.K)
		}
		q := Evaluate(g, p)
		// Every part should be non-trivially loaded; allow generous slack
		// for recursive bisection drift on small graphs.
		if q.MaxOverAvg[0] > 1.8 {
			t.Fatalf("k=%d: imbalance %v too high (weights %v)", k, q.MaxOverAvg[0], q.PartWeights)
		}
	}
}

func TestMultilevelCutBeatsRoundRobin(t *testing.T) {
	// On a graph with strong community structure the partitioner must find
	// a much smaller cut than round robin.
	g := communityGraph(4, 150, 5)
	k := 4
	ml := Multilevel(g, k, Options{Seed: 7})
	rr := RoundRobin(g.NumVertices(), k)
	qml := Evaluate(g, ml)
	qrr := Evaluate(g, rr)
	if qml.EdgeCut*4 > qrr.EdgeCut {
		t.Fatalf("multilevel cut %d not clearly better than RR cut %d", qml.EdgeCut, qrr.EdgeCut)
	}
}

func TestMultilevelDeterministic(t *testing.T) {
	g := randomGraph(5, 300, 1200, 1)
	a := Multilevel(g, 6, Options{Seed: 9})
	b := Multilevel(g, 6, Options{Seed: 9})
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("non-deterministic at vertex %d", v)
		}
	}
}

func TestMultilevelEdgeCases(t *testing.T) {
	g := randomGraph(2, 50, 100, 1)
	if p := Multilevel(g, 1, Options{}); p.K != 1 {
		t.Fatal("k=1 broken")
	}
	if p := Multilevel(g, 0, Options{}); p.K != 1 {
		t.Fatal("k=0 should clamp")
	}
	// k near n.
	p := Multilevel(g, 50, Options{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empty graph.
	empty := graph.NewBuilder(0, 1).Build()
	if p := Multilevel(empty, 4, Options{}); len(p.Assign) != 0 {
		t.Fatal("empty graph broken")
	}
}

func TestMultilevelMultiConstraint(t *testing.T) {
	// Two constraints carried by disjoint vertex sets (like persons vs
	// locations): both must end up balanced.
	s := xrand.NewStream(11)
	n := 400
	b := graph.NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		if v%2 == 0 {
			b.SetVertexWeight(v, 0, int64(1+s.Intn(10)))
		} else {
			b.SetVertexWeight(v, 1, int64(1+s.Intn(10)))
		}
	}
	for i := 0; i < 1600; i++ {
		u, v := s.Intn(n), s.Intn(n)
		b.AddEdge(u, v, 1)
	}
	g := b.Build()
	p := Multilevel(g, 4, Options{Seed: 3})
	q := Evaluate(g, p)
	for c := 0; c < 2; c++ {
		if q.MaxOverAvg[c] > 1.9 {
			t.Fatalf("constraint %d imbalance %v (weights %v)", c, q.MaxOverAvg[c], q.PartWeights)
		}
	}
}

func TestMultilevelDisconnected(t *testing.T) {
	// Two disjoint cliques; 2-way partitioning should cut zero edges.
	b := graph.NewBuilder(20, 1)
	for v := 0; v < 20; v++ {
		b.SetVertexWeight(v, 0, 1)
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			b.AddEdge(i, j, 1)
			b.AddEdge(10+i, 10+j, 1)
		}
	}
	g := b.Build()
	p := Multilevel(g, 2, Options{Seed: 5})
	q := Evaluate(g, p)
	if q.EdgeCut != 0 {
		t.Fatalf("disconnected cliques cut = %d, want 0", q.EdgeCut)
	}
}

// randomGraph builds a connected-ish random graph.
func randomGraph(seed uint64, n, m int, wMax int64) *graph.Graph {
	s := xrand.NewStream(seed)
	b := graph.NewBuilder(n, 1)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 0, 1+int64(s.Intn(int(wMax))))
	}
	// Spanning chain keeps it connected.
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v, 1)
	}
	for i := 0; i < m; i++ {
		b.AddEdge(s.Intn(n), s.Intn(n), int32(1+s.Intn(3)))
	}
	return b.Build()
}

// communityGraph builds numComm dense communities of commSize vertices
// with only 'bridges' edges between consecutive communities.
func communityGraph(numComm, commSize, bridges int) *graph.Graph {
	n := numComm * commSize
	b := graph.NewBuilder(n, 1)
	s := xrand.NewStream(99)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 0, 1)
	}
	for c := 0; c < numComm; c++ {
		base := c * commSize
		for i := 0; i < commSize*6; i++ {
			b.AddEdge(base+s.Intn(commSize), base+s.Intn(commSize), 1)
		}
		if c > 0 {
			for i := 0; i < bridges; i++ {
				b.AddEdge(base-1-s.Intn(commSize), base+s.Intn(commSize), 1)
			}
		}
	}
	return b.Build()
}

func BenchmarkMultilevel10k(b *testing.B) {
	g := randomGraph(3, 10000, 40000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Multilevel(g, 16, Options{Seed: 1})
		if p.Validate() != nil {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkLPT100k(b *testing.B) {
	s := xrand.NewStream(1)
	loads := make([]int64, 100000)
	for i := range loads {
		loads[i] = int64(1 + s.Intn(1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LPT(loads, 1024)
	}
}
