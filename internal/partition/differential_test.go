package partition

import (
	"container/heap"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// contractViaBuilder is contract as it was before it wrote CSR itself:
// the matching takes the first maximum in row order (on the builder's
// sorted rows, the lowest id among the heaviest), the same numbering, then
// every fine edge through the general-purpose builder. The oracle of
// TestContractMatchesBuilder.
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
		var bestW int32 = -1
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
		b.AddEdge(s.Intn(n), s.Intn(n), int32(1+s.Intn(4)))
	}
	return b.Build()
}

// sortRowsCopy returns g with every row sorted by neighbor id: the form
// the builder writes and Validate checks. contract's rows come in
// first-seen order.
func sortRowsCopy(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	xadj := make([]int32, n+1)
	var adj, ew []int32
	var vw []int64
	for v := 0; v < n; v++ {
		nbrs, ws := g.Neighbors(v)
		idx := make([]int, len(nbrs))
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return int(nbrs[a] - nbrs[b]) })
		for _, i := range idx {
			adj, ew = append(adj, nbrs[i]), append(ew, ws[i])
		}
		xadj[v+1] = int32(len(adj))
		vw = append(vw, g.VertexWeights(v)...)
	}
	return graph.NewFromCSR(g.NumConstraints(), xadj, adj, ew, vw)
}

// Each side coarsens its own graph: the oracle the builder's sorted one,
// where its first-in-row-order matching is the rule, and contract the
// unsorted one it wrote itself, where its (weight desc, id asc) rule must
// pick the same partners.
func TestContractMatchesBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		nCon := 1 + int(seed)%3
		top := multiConstraintGraph(seed, 1500, 5000, nCon)
		wk := newWorkspace(top)
		g, gWant := top, top
		sNew, sOld := xrand.NewStream(seed), xrand.NewStream(seed)
		unsorted := 0
		for level := 0; level < 3; level++ {
			cmap, coarse := contract(g, sNew, wk)
			wantMap, want := contractViaBuilder(gWant, sOld)
			if !slices.Equal(cmap, wantMap) {
				t.Fatalf("seed %d level %d: cmap differs", seed, level)
			}
			sorted := sortRowsCopy(coarse)
			if err := sorted.Validate(); err != nil {
				t.Fatalf("seed %d level %d: %v", seed, level, err)
			}
			if coarse.NumVertices() != want.NumVertices() || coarse.NumEdges() != want.NumEdges() ||
				coarse.NumConstraints() != want.NumConstraints() {
				t.Fatalf("seed %d level %d: %d vertices / %d edges, want %d / %d", seed, level,
					coarse.NumVertices(), coarse.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			// Row by row, each as its sorted (neighbor, weight) pairs.
			for v := 0; v < want.NumVertices(); v++ {
				gn, gw := sorted.Neighbors(v)
				wn, ww := want.Neighbors(v)
				if !slices.Equal(gn, wn) || !slices.Equal(gw, ww) ||
					!slices.Equal(coarse.VertexWeights(v), want.VertexWeights(v)) {
					t.Fatalf("seed %d level %d: coarse vertex %d differs", seed, level, v)
				}
				if nbrs, _ := coarse.Neighbors(v); !slices.IsSorted(nbrs) {
					unsorted++
				}
			}
			g, gWant = coarse, want
		}
		if unsorted == 0 {
			t.Fatalf("seed %d: every coarse row came out sorted; the order-free matching went untested", seed)
		}
	}
}

// Vertex 0's row is 3, 1, 2 with weights 5, 5, 1: its heaviest neighbors
// tie out of id order, and it must match 1, as the first maximum of the
// sorted row would.
func TestContractTieGoesToLowestID(t *testing.T) {
	g := graph.NewFromCSR(1, []int32{0, 3, 4, 5, 6}, []int32{3, 1, 2, 0, 0, 0},
		[]int32{5, 5, 1, 5, 1, 5}, []int64{1, 1, 1, 1})
	// A seed whose matching order visits vertex 0 first.
	seed := uint64(1)
	for order := make([]int32, 4); ; seed++ {
		if xrand.NewStream(seed).PermInt32(order); order[0] == 0 {
			break
		}
	}
	cmap, _ := contract(g, xrand.NewStream(seed), newWorkspace(g))
	if want := []int32{0, 0, 1, 2}; !slices.Equal(cmap, want) {
		t.Fatalf("cmap = %v, want %v (0 matched with 1)", cmap, want)
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

// Random interleavings of push, pop and heapify of a random batch over few
// distinct gains and vertices, so most entries have an equal twin and most
// vertices several superseded (stale) entries, across a reset that keeps
// the storage.
func TestGainQueueMatchesContainerHeap(t *testing.T) {
	var q gainQueue
	heapified := 0
	for seed := uint64(1); seed <= 20; seed++ {
		s := xrand.NewStream(seed)
		q.reset()
		ref := &refHeap{}
		for op := 0; op < 3000; op++ {
			if q.len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, q.len(), ref.Len())
			}
			switch r := s.Intn(50); {
			case r == 0:
				for i := s.Intn(40); i > 0; i-- {
					e := gainEntry{gain: int64(s.Intn(9)) - 4, v: int32(s.Intn(12))}
					q.e = append(q.e, e)
					*ref = append(*ref, e)
				}
				q.heapify()
				heap.Init(ref)
				heapified++
			case q.len() > 0 && r < 20:
				if got, want := q.pop(), heap.Pop(ref).(gainEntry); got != want {
					t.Fatalf("seed %d op %d: popped %+v, want %+v", seed, op, got, want)
				}
			default:
				e := gainEntry{gain: int64(s.Intn(9)) - 4, v: int32(s.Intn(12))}
				q.push(e)
				heap.Push(ref, e)
			}
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
	if heapified == 0 {
		t.Fatal("no batch was heapified")
	}
}

// refine2wayReference is refine2way as it was before its queue split by
// sign: every pass pushes its whole boundary and every update into one
// heap. It returns how many passes popped a negative-gain entry while a
// side was overweight — the passes where refine2way must merge its held
// negative entries into the heap to stay equal.
func refine2wayReference(g *graph.Graph, side []int8, f float64, opt Options, wk *workspace) (merges int) {
	n := g.NumVertices()
	if n < 2 {
		return 0
	}
	nCon := g.NumConstraints()
	totals := make([]int64, nCon)
	for c := 0; c < nCon; c++ {
		totals[c] = g.TotalVertexWeight(c)
	}
	cap0 := make([]int64, nCon)
	cap1 := make([]int64, nCon)
	for c := 0; c < nCon; c++ {
		cap0[c] = int64((1 + opt.Imbalance) * f * float64(totals[c]))
		cap1[c] = int64((1 + opt.Imbalance) * (1 - f) * float64(totals[c]))
	}
	partW := [2][]int64{make([]int64, nCon), make([]int64, nCon)}
	counts := [2]int{}
	for v := 0; v < n; v++ {
		vw := g.VertexWeights(v)
		sd := side[v]
		for c := 0; c < nCon; c++ {
			partW[sd][c] += vw[c]
		}
		counts[sd]++
	}
	caps := [2][]int64{cap0, cap1}

	gain, ext := wk.gain[:n], wk.ext[:n]
	for v := 0; v < n; v++ {
		var d int64
		var x int32
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			if side[u] == side[v] {
				d -= int64(ws[i])
			} else {
				d += int64(ws[i])
				x++
			}
		}
		gain[v] = d
		ext[v] = x
	}

	overweight := func(sd int8) bool {
		for c := 0; c < nCon; c++ {
			if partW[sd][c] > caps[sd][c] {
				return true
			}
		}
		return false
	}
	violationDelta := func(src, dst int8, vw []int64) float64 {
		var delta float64
		for c := 0; c < nCon; c++ {
			if totals[c] == 0 {
				continue
			}
			over := func(w, cap int64) float64 {
				if w > cap {
					return float64(w-cap) / float64(totals[c])
				}
				return 0
			}
			before := over(partW[src][c], caps[src][c]) + over(partW[dst][c], caps[dst][c])
			after := over(partW[src][c]-vw[c], caps[src][c]) + over(partW[dst][c]+vw[c], caps[dst][c])
			delta += after - before
		}
		return delta
	}

	moved, h := wk.moved[:n], &wk.queue
	for pass := 0; pass < maxPasses; pass++ {
		h.reset()
		clear(moved)
		for v := 0; v < n; v++ {
			if ext[v] > 0 || g.Degree(v) == 0 {
				h.push(gainEntry{gain: gain[v], v: int32(v)})
			}
		}
		var passGain int64
		var passRepair float64
		movesMade := 0
		merged := false
		for h.len() > 0 {
			e := h.pop()
			if e.gain < 0 && !merged && (overweight(0) || overweight(1)) {
				merged = true
				merges++
			}
			v := int(e.v)
			if moved[v] || e.gain != gain[v] {
				continue
			}
			src := side[v]
			dst := 1 - src
			vw := g.VertexWeights(v)
			if counts[src] <= 1 {
				continue
			}
			delta := violationDelta(src, dst, vw)
			if !(delta < 0 || (gain[v] > 0 && delta <= 0)) {
				if gain[v] < 0 && !overweight(src) && !overweight(dst) {
					break
				}
				continue
			}
			passRepair -= delta
			side[v] = dst
			moved[v] = true
			movesMade++
			passGain += gain[v]
			counts[src]--
			counts[dst]++
			for c := 0; c < nCon; c++ {
				partW[src][c] -= vw[c]
				partW[dst][c] += vw[c]
			}
			gain[v] = -gain[v]
			nbrs, ws := g.Neighbors(v)
			ext[v] = int32(len(nbrs)) - ext[v]
			for i, u := range nbrs {
				if side[u] == dst {
					gain[u] -= 2 * int64(ws[i])
					ext[u]--
				} else {
					gain[u] += 2 * int64(ws[i])
					ext[u]++
				}
				if !moved[u] {
					h.push(gainEntry{gain: gain[u], v: u})
				}
			}
		}
		if movesMade == 0 {
			break
		}
		if passGain <= 0 && passRepair <= 0 {
			break
		}
	}
	return merges
}

// Random graphs (one to three constraints, isolated vertices, and every
// other one a coarse graph with unsorted rows) under random initial sides,
// some of them so lopsided that a pass runs out of non-negative moves with
// a side still overweight: the split queue must leave side, gain and ext
// exactly as the one-heap queue does.
func TestRefineMatchesReference(t *testing.T) {
	merges := 0
	for trial := uint64(1); trial <= 60; trial++ {
		s := xrand.NewStream(trial)
		n := 200 + s.Intn(1500)
		g := multiConstraintGraph(trial, n, n*(1+s.Intn(4)), 1+s.Intn(3))
		if trial%2 == 0 {
			_, g = contract(g, s, newWorkspace(g))
		}
		n = g.NumVertices()
		f := []float64{0.5, 0.25, 0.6}[s.Intn(3)]
		opt := Options{Imbalance: []float64{0.02, 0.05, 0.1}[s.Intn(3)]}.withDefaults()
		pOne := []int{50, 10, 2, 98}[s.Intn(4)] // percent of vertices starting on side 1
		side := make([]int8, n)
		for v := range side {
			if s.Intn(100) < pOne {
				side[v] = 1
			}
		}
		want := slices.Clone(side)
		wk, ref := newWorkspace(g), newWorkspace(g)
		refine2way(g, side, f, opt, wk)
		merges += refine2wayReference(g, want, f, opt, ref)
		if !slices.Equal(side, want) || !slices.Equal(wk.gain, ref.gain) || !slices.Equal(wk.ext, ref.ext) {
			t.Fatalf("trial %d (n=%d, f=%v, %d%% on side 1): refinement differs from the reference",
				trial, n, f, pOne)
		}
	}
	if merges == 0 {
		t.Fatal("no pass ran dry of non-negative moves with a side overweight: the merge path went untested")
	}
	t.Logf("%d passes merged the held negative entries", merges)
}

// The build's allocations are a count, not a timing: it repeats exactly.
// 464,927 before coarsening wrote CSR and the queue was typed, 1,488 after,
// 1,008 once coarse graphs came from the bisection arena; the bound leaves
// room for a few more per level, not for one per edge, per push or per
// pass. The bytes are the arena's chunks and the bisections' subgraphs:
// 14,226,076 with int64 edge weights and a doubling arena; 9,477,064 at
// -cpu 1 and 9,997,176 at -cpu 2 (a second goroutine's queues) with int32
// weights and chunks kept across bisections, the bound 25 % above the
// larger.
func TestMultilevelAllocations(t *testing.T) {
	g := randomGraph(3, 10000, 40000, 4)
	allocs := testing.AllocsPerRun(2, func() {
		Multilevel(g, 16, Options{Seed: 1})
	})
	if allocs > 1200 {
		t.Fatalf("Multilevel allocated %.0f objects per run, want <= 1200", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	for i := 0; i < runs; i++ {
		Multilevel(g, 16, Options{Seed: 1})
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > 12_496_470 {
		t.Fatalf("Multilevel allocated %d bytes per run, want <= 12,496,470", bytes)
	}
	t.Logf("%.0f allocations, %d bytes per run", allocs, bytes)
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
