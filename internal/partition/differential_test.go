package partition

import (
	"container/heap"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// contractViaBuilder is contract as it was before it wrote CSR itself:
// the same matching and numbering, then every fine edge through the
// general-purpose builder. The oracle of TestContractMatchesBuilder.
func contractViaBuilder(g *graph.Graph, s *xrand.Stream) ([]int32, *graph.Graph) {
	n := g.NumVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	for _, vi := range s.Perm(n) {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		nbrs, ws := g.Neighbors(int(v))
		best := int32(-1)
		var bestW int64 = -1
		for i, u := range nbrs {
			if match[u] < 0 && ws[i] > bestW {
				best, bestW = u, ws[i]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var numCoarse int32
	for v := 0; v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = numCoarse
		if m := match[v]; m != int32(v) {
			cmap[m] = numCoarse
		}
		numCoarse++
	}
	nCon := g.NumConstraints()
	b := graph.NewBuilder(int(numCoarse), nCon)
	cw := make([]int64, int(numCoarse)*nCon)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for c := 0; c < nCon; c++ {
			cw[int(cv)*nCon+c] += g.VertexWeight(v, c)
		}
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) <= v {
				continue // each fine edge once
			}
			if cu := cmap[u]; cu != cv {
				b.AddEdge(int(cv), int(cu), ws[i])
			}
		}
	}
	for i, w := range cw {
		b.SetVertexWeight(i/nCon, i%nCon, w)
	}
	return cmap, b.Build()
}

// multiConstraintGraph is a random graph with nCon weight components, some
// of them zero, plus a few isolated vertices.
func multiConstraintGraph(seed uint64, n, m, nCon int) *graph.Graph {
	s := xrand.NewStream(seed)
	b := graph.NewBuilder(n+5, nCon)
	for v := 0; v < n; v++ {
		for c := 0; c < nCon; c++ {
			b.SetVertexWeight(v, c, int64(s.Intn(6)))
		}
	}
	for i := 0; i < m; i++ {
		b.AddEdge(s.Intn(n), s.Intn(n), int64(1+s.Intn(4)))
	}
	return b.Build()
}

func TestContractMatchesBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		nCon := 1 + int(seed)%3
		top := multiConstraintGraph(seed, 1500, 5000, nCon)
		wk := newWorkspace(top)
		g := top
		sNew, sOld := xrand.NewStream(seed), xrand.NewStream(seed)
		for level := 0; level < 3; level++ {
			cmap, coarse := contract(g, sNew, wk)
			wantMap, want := contractViaBuilder(g, sOld)
			if !slices.Equal(cmap, wantMap) {
				t.Fatalf("seed %d level %d: cmap differs", seed, level)
			}
			if err := coarse.Validate(); err != nil {
				t.Fatalf("seed %d level %d: %v", seed, level, err)
			}
			if coarse.NumVertices() != want.NumVertices() || coarse.NumEdges() != want.NumEdges() ||
				coarse.NumConstraints() != want.NumConstraints() {
				t.Fatalf("seed %d level %d: %d vertices / %d edges, want %d / %d", seed, level,
					coarse.NumVertices(), coarse.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			// Row by row through the accessors: equal lengths and contents
			// of every row are equal xadj, adj and edgeW.
			for v := 0; v < want.NumVertices(); v++ {
				gn, gw := coarse.Neighbors(v)
				wn, ww := want.Neighbors(v)
				if !slices.Equal(gn, wn) || !slices.Equal(gw, ww) ||
					!slices.Equal(coarse.VertexWeights(v), want.VertexWeights(v)) {
					t.Fatalf("seed %d level %d: coarse vertex %d differs", seed, level, v)
				}
			}
			g = coarse
		}
	}
}

// refHeap is the queue as it was: container/heap over the same order.
type refHeap []gainEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(gainEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Random interleavings of push and pop over few distinct gains and
// vertices, so most entries have an equal twin and most vertices several
// superseded (stale) entries, across a reset that keeps the storage.
func TestGainQueueMatchesContainerHeap(t *testing.T) {
	var q gainQueue
	for seed := uint64(1); seed <= 20; seed++ {
		s := xrand.NewStream(seed)
		q.reset()
		ref := &refHeap{}
		for op := 0; op < 3000; op++ {
			if q.len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, q.len(), ref.Len())
			}
			if q.len() > 0 && s.Intn(5) < 2 {
				if got, want := q.pop(), heap.Pop(ref).(gainEntry); got != want {
					t.Fatalf("seed %d op %d: popped %+v, want %+v", seed, op, got, want)
				}
				continue
			}
			e := gainEntry{gain: int64(s.Intn(9)) - 4, v: int32(s.Intn(12))}
			q.push(e)
			heap.Push(ref, e)
		}
		for ref.Len() > 0 {
			if got, want := q.pop(), heap.Pop(ref).(gainEntry); got != want {
				t.Fatalf("seed %d drain: popped %+v, want %+v", seed, got, want)
			}
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: %d entries left", seed, q.len())
		}
	}
}

// The build's allocations are a count, not a timing: it repeats exactly.
// 464,927 before coarsening wrote CSR and the queue was typed, 1,486 after;
// the bound leaves room for a few more per level, not for one per edge,
// per push or per pass.
func TestMultilevelAllocations(t *testing.T) {
	g := randomGraph(3, 10000, 40000, 4)
	allocs := testing.AllocsPerRun(2, func() {
		Multilevel(g, 16, Options{Seed: 1})
	})
	if allocs > 5000 {
		t.Fatalf("Multilevel allocated %.0f objects per run, want <= 5000", allocs)
	}
	t.Logf("%.0f allocations per run", allocs)
}

// The workspace belongs to one call: builds of one graph running at once
// (the executor builds GP and GP-splitLoc side by side) must each return
// what a lone build returns, and CI's race job must see no shared write.
func TestMultilevelConcurrentBuilds(t *testing.T) {
	g := randomGraph(8, 2000, 8000, 3)
	want := Multilevel(g, 8, Options{Seed: 5}).Assign
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := Multilevel(g, 8, Options{Seed: 5}).Assign; !slices.Equal(got, want) {
				t.Error("a concurrent build returned a different placement")
			}
		}()
	}
	wg.Wait()
}
