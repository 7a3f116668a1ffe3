// Package partition implements the data distribution strategies the paper
// compares (Section III-B):
//
//   - RoundRobin — the original EpiSimdemics assignment (label "RR");
//   - Multilevel — a METIS-class multilevel graph partitioner with
//     multi-constraint balance (one constraint per computation phase) and
//     edge-cut minimization (label "GP");
//   - LPT — greedy longest-processing-time multiway number partitioning,
//     used to compute the load-balance-optimal assignments behind the
//     paper's S_ub speedup bounds (Figures 4, 5, 8) where edges are
//     ignored.
//
// Evaluate computes the quality metrics the paper reports: per-partition
// load (max/avg ratio), total edge cut, the maximum per-partition edge cut
// of Figure 14, and the S_ub = L_tot/L_max speedup bound.
//
// Multilevel is the cold placement build's cost, so it goes through no
// general-purpose container: coarse graphs and bisection subgraphs are
// written as CSR (graph.NewFromCSR, Graph.InducedSubgraph; rows come out
// sorted by transposing, not by comparing), the FM gain queue is a typed
// heap, and one workspace per call is reused by every level, pass and
// bisection. Its placements are pinned by testdata/multilevel.golden, and
// differential_test.go keeps the builder-based coarsening and the
// container/heap queue as the oracles of the code that replaced them.
package partition

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Partitioning assigns each of N vertices to one of K parts.
type Partitioning struct {
	K      int
	Assign []int32
}

// Validate checks that every vertex is assigned to a part in [0, K).
func (p *Partitioning) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("partition: K = %d", p.K)
	}
	for v, a := range p.Assign {
		if a < 0 || int(a) >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to %d outside [0,%d)", v, a, p.K)
		}
	}
	return nil
}

// RoundRobin assigns vertex i to part i mod k: the paper's baseline
// distribution ("Originally, we assign objects to Charm++ chares
// round-robin (RR) to approximate static load balancing").
func RoundRobin(n, k int) *Partitioning {
	if k < 1 {
		k = 1
	}
	p := &Partitioning{K: k, Assign: make([]int32, n)}
	for i := 0; i < n; i++ {
		p.Assign[i] = int32(i % k)
	}
	return p
}

// LPT assigns items to k parts by longest-processing-time-first greedy
// scheduling on the given loads: sort loads descending, always placing the
// next item on the least-loaded part. It ignores edges entirely, which is
// exactly the "optimal partitioning in terms of load balancing without
// considering edge cuts" of Figure 2(a), and a 4/3-approximation of the
// optimal makespan — good enough to evaluate the paper's S_ub bound.
func LPT(loads []int64, k int) *Partitioning {
	if k < 1 {
		k = 1
	}
	p := &Partitioning{K: k, Assign: make([]int32, len(loads))}
	order := make([]int32, len(loads))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := loads[order[a]], loads[order[b]]
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	h := make(lptHeap, k)
	for i := range h {
		h[i] = lptBin{part: int32(i)}
	}
	heap.Init(&h)
	for _, v := range order {
		bin := h[0]
		p.Assign[v] = bin.part
		bin.load += loads[v]
		h[0] = bin
		heap.Fix(&h, 0)
	}
	return p
}

type lptBin struct {
	load int64
	part int32
}

type lptHeap []lptBin

func (h lptHeap) Len() int { return len(h) }
func (h lptHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].part < h[j].part
}
func (h lptHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *lptHeap) Push(x interface{}) { *h = append(*h, x.(lptBin)) }
func (h *lptHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Quality summarizes a partitioning of a weighted graph.
type Quality struct {
	K int
	// PartWeights[p][c] is the total weight of constraint c in part p.
	PartWeights [][]int64
	// TotalWeights[c] is the graph total for constraint c.
	TotalWeights []int64
	// MaxOverAvg[c] = max_p PartWeights[p][c] / avg_p PartWeights[p][c]:
	// the load imbalance ratio of Figure 2.
	MaxOverAvg []float64
	// EdgeCut is the total weight of edges crossing parts.
	EdgeCut int64
	// MaxPartCut is the maximum, over parts, of the cut weight incident to
	// that part (Figure 14's "maximum per-partition edge cut").
	MaxPartCut int64
	// TotalEdgeWeight is the graph's total edge weight; MaxPartCut is
	// compared against TotalEdgeWeight/K (the hypothetical all-remote
	// case) in Figure 14.
	TotalEdgeWeight int64
}

// SpeedupUpperBound returns S_ub = L_tot / L_max for constraint c: the
// paper's estimated upper bound on speedup from the load distribution
// (Section III-B). Returns 0 if the constraint has no load.
func (q Quality) SpeedupUpperBound(c int) float64 {
	var max int64
	for _, pw := range q.PartWeights {
		if pw[c] > max {
			max = pw[c]
		}
	}
	if max == 0 {
		return 0
	}
	return float64(q.TotalWeights[c]) / float64(max)
}

// Evaluate computes the Quality of partitioning p over graph g.
func Evaluate(g *graph.Graph, p *Partitioning) Quality {
	nCon := g.NumConstraints()
	q := Quality{
		K:               p.K,
		PartWeights:     make([][]int64, p.K),
		TotalWeights:    make([]int64, nCon),
		MaxOverAvg:      make([]float64, nCon),
		TotalEdgeWeight: g.TotalEdgeWeight(),
	}
	for i := range q.PartWeights {
		q.PartWeights[i] = make([]int64, nCon)
	}
	for v := 0; v < g.NumVertices(); v++ {
		part := p.Assign[v]
		vw := g.VertexWeights(v)
		for c := 0; c < nCon; c++ {
			q.PartWeights[part][c] += vw[c]
			q.TotalWeights[c] += vw[c]
		}
	}
	for c := 0; c < nCon; c++ {
		var max int64
		for _, pw := range q.PartWeights {
			if pw[c] > max {
				max = pw[c]
			}
		}
		avg := float64(q.TotalWeights[c]) / float64(p.K)
		if avg > 0 {
			q.MaxOverAvg[c] = float64(max) / avg
		}
	}
	perPartCut := make([]int64, p.K)
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.Neighbors(v)
		pv := p.Assign[v]
		for i, u := range nbrs {
			pu := p.Assign[u]
			if pu != pv {
				q.EdgeCut += ws[i] // counted once per endpoint; halved below
				perPartCut[pv] += ws[i]
			}
		}
	}
	q.EdgeCut /= 2
	for _, c := range perPartCut {
		if c > q.MaxPartCut {
			q.MaxPartCut = c
		}
	}
	return q
}
