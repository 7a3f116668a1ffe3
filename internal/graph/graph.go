// Package graph provides the compressed sparse row (CSR) graph
// representation used throughout the reproduction: the person–location
// bipartite graph of Section II-A, the weighted graphs handed to the
// multilevel partitioner of Section III-B, and the coarse graphs the
// partitioner produces internally.
//
// Vertices carry a *vector* of integer weights (one component per balance
// constraint) because the paper partitions under multi-constraint balance:
// one constraint for the person-phase load and one for the location-phase
// load. Edges carry a single integer weight (communication volume).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted graph in CSR form. Each undirected edge
// {u,v} is stored twice, once in each endpoint's adjacency list. Adjacency
// lists are sorted by neighbor id and contain no duplicates or self loops.
type Graph struct {
	numV int
	nCon int // number of vertex weight components (balance constraints)

	xadj  []int32 // len numV+1; adjacency offsets
	adj   []int32 // neighbor ids
	edgeW []int64 // weight per adjacency entry (symmetric)
	vw    []int64 // vertex weights, len numV*nCon, component-major per vertex
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.numV }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// NumConstraints returns the number of vertex weight components.
func (g *Graph) NumConstraints() int { return g.nCon }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.xadj[v+1] - g.xadj[v]) }

// Neighbors returns the neighbor ids and edge weights of v. The returned
// slices alias internal storage and must not be modified.
func (g *Graph) Neighbors(v int) ([]int32, []int64) {
	lo, hi := g.xadj[v], g.xadj[v+1]
	return g.adj[lo:hi], g.edgeW[lo:hi]
}

// VertexWeight returns component c of v's weight vector.
func (g *Graph) VertexWeight(v, c int) int64 { return g.vw[v*g.nCon+c] }

// VertexWeights returns v's full weight vector (aliases internal storage).
func (g *Graph) VertexWeights(v int) []int64 {
	return g.vw[v*g.nCon : (v+1)*g.nCon]
}

// SetVertexWeight sets component c of v's weight vector.
func (g *Graph) SetVertexWeight(v, c int, w int64) { g.vw[v*g.nCon+c] = w }

// TotalVertexWeight returns the sum of component c over all vertices.
func (g *Graph) TotalVertexWeight(c int) int64 {
	var sum int64
	for v := 0; v < g.numV; v++ {
		sum += g.vw[v*g.nCon+c]
	}
	return sum
}

// TotalEdgeWeight returns the sum of weights over undirected edges.
func (g *Graph) TotalEdgeWeight() int64 {
	var sum int64
	for _, w := range g.edgeW {
		sum += w
	}
	return sum / 2
}

// EdgeWeightBetween returns the weight of edge {u,v}, or 0 if absent.
// Lookup is O(log deg(u)).
func (g *Graph) EdgeWeightBetween(u, v int) int64 {
	lo, hi := int(g.xadj[u]), int(g.xadj[u+1])
	idx := sort.Search(hi-lo, func(i int) bool { return g.adj[lo+i] >= int32(v) })
	if idx < hi-lo && g.adj[lo+idx] == int32(v) {
		return g.edgeW[lo+idx]
	}
	return 0
}

// Validate checks structural invariants: monotone offsets, sorted
// duplicate-free adjacency, no self loops, and symmetry of both adjacency
// and edge weights. It is used by property tests and after construction of
// derived graphs.
func (g *Graph) Validate() error {
	if len(g.xadj) != g.numV+1 {
		return fmt.Errorf("graph: xadj length %d, want %d", len(g.xadj), g.numV+1)
	}
	if g.xadj[0] != 0 || int(g.xadj[g.numV]) != len(g.adj) {
		return fmt.Errorf("graph: xadj endpoints invalid")
	}
	if len(g.edgeW) != len(g.adj) {
		return fmt.Errorf("graph: edgeW length mismatch")
	}
	if len(g.vw) != g.numV*g.nCon {
		return fmt.Errorf("graph: vertex weight length %d, want %d", len(g.vw), g.numV*g.nCon)
	}
	for v := 0; v < g.numV; v++ {
		if g.xadj[v] > g.xadj[v+1] {
			return fmt.Errorf("graph: xadj not monotone at %d", v)
		}
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if u < 0 || int(u) >= g.numV {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if w := g.EdgeWeightBetween(int(u), v); w != ws[i] {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}: %d vs %d", v, u, ws[i], w)
			}
		}
	}
	return nil
}

// Builder accumulates edges and vertex weights, then produces a Graph.
// Duplicate edges are merged by summing weights; self loops are dropped.
type Builder struct {
	numV int
	nCon int
	vw   []int64
	us   []int32
	vs   []int32
	ws   []int64
}

// NewBuilder creates a builder for numV vertices with nCon weight
// components per vertex (all initially zero).
func NewBuilder(numV, nCon int) *Builder {
	if numV < 0 || nCon < 1 {
		panic("graph: NewBuilder requires numV >= 0 and nCon >= 1")
	}
	return &Builder{
		numV: numV,
		nCon: nCon,
		vw:   make([]int64, numV*nCon),
	}
}

// SetVertexWeight sets component c of v's weight vector.
func (b *Builder) SetVertexWeight(v, c int, w int64) { b.vw[v*b.nCon+c] = w }

// AddVertexWeight adds w to component c of v's weight vector.
func (b *Builder) AddVertexWeight(v, c int, w int64) { b.vw[v*b.nCon+c] += w }

// AddEdge records an undirected edge {u,v} with weight w. Repeated calls
// with the same endpoints accumulate weight. Self loops are ignored.
func (b *Builder) AddEdge(u, v int, w int64) {
	if u == v {
		return
	}
	if u < 0 || u >= b.numV || v < 0 || v >= b.numV {
		panic(fmt.Sprintf("graph: AddEdge endpoint out of range: {%d,%d} with numV=%d", u, v, b.numV))
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.ws = append(b.ws, w)
}

// Build constructs the CSR graph. The builder can be reused afterwards,
// but edges already added remain.
func (b *Builder) Build() *Graph {
	n := b.numV
	// Count directed entries (each undirected edge appears twice), merging
	// duplicates via per-vertex sort afterwards.
	deg := make([]int32, n+1)
	for i := range b.us {
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	xadj := make([]int32, n+1)
	for v := 0; v < n; v++ {
		xadj[v+1] = xadj[v] + deg[v+1]
	}
	adj := make([]int32, xadj[n])
	ew := make([]int64, xadj[n])
	cursor := make([]int32, n)
	copy(cursor, xadj[:n])
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		adj[cursor[u]] = v
		ew[cursor[u]] = w
		cursor[u]++
		adj[cursor[v]] = u
		ew[cursor[v]] = w
		cursor[v]++
	}
	// Sort each adjacency list and merge duplicate neighbors.
	outAdj := adj[:0]
	outW := ew[:0]
	newXadj := make([]int32, n+1)
	for v := 0; v < n; v++ {
		lo, hi := xadj[v], xadj[v+1]
		seg := adjSegment{ids: adj[lo:hi], ws: ew[lo:hi]}
		sort.Sort(seg)
		start := len(outAdj)
		for i := 0; i < len(seg.ids); {
			id := seg.ids[i]
			var w int64
			for i < len(seg.ids) && seg.ids[i] == id {
				w += seg.ws[i]
				i++
			}
			outAdj = append(outAdj, id)
			outW = append(outW, w)
		}
		_ = start
		newXadj[v+1] = int32(len(outAdj))
	}
	g := &Graph{
		numV:  n,
		nCon:  b.nCon,
		xadj:  newXadj,
		adj:   append([]int32(nil), outAdj...),
		edgeW: append([]int64(nil), outW...),
		vw:    append([]int64(nil), b.vw...),
	}
	return g
}

type adjSegment struct {
	ids []int32
	ws  []int64
}

func (s adjSegment) Len() int           { return len(s.ids) }
func (s adjSegment) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s adjSegment) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// NewFromCSR constructs a Graph directly from CSR arrays. The arrays are
// taken over by the graph (not copied). Intended for the partitioner's
// coarsening step, which builds CSR natively; Validate is the caller's
// responsibility in tests.
func NewFromCSR(nCon int, xadj []int32, adj []int32, edgeW []int64, vw []int64) *Graph {
	numV := len(xadj) - 1
	return &Graph{numV: numV, nCon: nCon, xadj: xadj, adj: adj, edgeW: edgeW, vw: vw}
}

// InducedSubgraph extracts the subgraph induced by the given vertices
// (which must be distinct). It returns the subgraph and the mapping from
// new vertex ids to the original ids. Used by recursive bisection.
func (g *Graph) InducedSubgraph(vertices []int32) (*Graph, []int32) {
	toNew := make(map[int32]int32, len(vertices))
	for i, v := range vertices {
		toNew[v] = int32(i)
	}
	b := NewBuilder(len(vertices), g.nCon)
	for i, v := range vertices {
		copy(b.vw[i*g.nCon:(i+1)*g.nCon], g.VertexWeights(int(v)))
		nbrs, ws := g.Neighbors(int(v))
		for j, u := range nbrs {
			nu, ok := toNew[u]
			if !ok {
				continue
			}
			if int32(i) < nu { // add each undirected edge once
				b.AddEdge(i, int(nu), ws[j])
			}
		}
	}
	sub := b.Build()
	mapping := append([]int32(nil), vertices...)
	return sub, mapping
}
