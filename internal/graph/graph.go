// Package graph provides the compressed sparse row (CSR) graph
// representation used throughout the reproduction: the person–location
// bipartite graph of Section II-A, the weighted graphs handed to the
// multilevel partitioner of Section III-B, and the coarse graphs the
// partitioner produces internally.
//
// Vertices carry a *vector* of integer weights (one component per balance
// constraint) because the paper partitions under multi-constraint balance:
// one constraint for the person-phase load and one for the location-phase
// load. Edges carry a single int32 weight (communication volume). Every
// graph the reproduction builds bounds it: the bipartite graph's weights are
// visit counts summing to the population's visits, which the population's
// int32 visit offsets already hold under math.MaxInt32, and a coarse or
// induced edge weighs at most the sum of the edges it stands for. Builder
// enforces the same bound on hand-written graphs: Build panics on a total
// past it instead of wrapping. Sums of weights (gains, cuts, totals) are
// int64.
//
// There are two ways to make a Graph. Builder takes edges in any order, with
// duplicates, and is for graphs written by hand: examples, figures, tests.
// The placement build — the bipartite graph, every coarsening level, every
// bisection's subgraph — writes CSR arrays directly (NewFromCSR,
// InducedSubgraph), because it knows its rows' structure and runs once per
// cold placement on the whole population.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is an undirected weighted graph in CSR form. Each undirected edge
// {u,v} is stored twice, once in each endpoint's adjacency list. Adjacency
// lists contain no duplicates or self loops and are sorted by neighbor id,
// except in the partitioner's coarse graphs (first-seen order), on which
// EdgeWeightBetween and Validate, which assume sorted rows, do not hold.
type Graph struct {
	numV int
	nCon int // number of vertex weight components (balance constraints)

	xadj  []int32 // len numV+1; adjacency offsets
	adj   []int32 // neighbor ids
	edgeW []int32 // weight per adjacency entry (symmetric)
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
func (g *Graph) Neighbors(v int) ([]int32, []int32) {
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
		sum += int64(w)
	}
	return sum / 2
}

// EdgeWeightBetween returns the weight of edge {u,v}, or 0 if absent.
// Lookup is O(log deg(u)).
func (g *Graph) EdgeWeightBetween(u, v int) int32 {
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
	ws   []int32
	sum  int64 // of ws: Build refuses a total past math.MaxInt32
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

// AddEdge records an undirected edge {u,v} with weight w >= 0. Repeated
// calls with the same endpoints accumulate weight. Self loops are ignored.
func (b *Builder) AddEdge(u, v int, w int32) {
	if u == v {
		return
	}
	if u < 0 || u >= b.numV || v < 0 || v >= b.numV {
		panic(fmt.Sprintf("graph: AddEdge endpoint out of range: {%d,%d} with numV=%d", u, v, b.numV))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: AddEdge weight %d of {%d,%d} is negative", w, u, v))
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.ws = append(b.ws, w)
	b.sum += int64(w)
}

// Build constructs the CSR graph: count degrees, fill each row in insertion
// order, sort every row with one transpose (sortRows) and merge the
// duplicates that are now adjacent. It panics if the edges weigh more than
// math.MaxInt32 together, the bound under which no merged weight can wrap.
// The builder can be reused afterwards, but edges already added remain.
func (b *Builder) Build() *Graph {
	if b.sum > math.MaxInt32 {
		panic(fmt.Sprintf("graph: edges weigh %d in total, past the int32 range", b.sum))
	}
	n := b.numV
	xadj := make([]int32, n+1)
	for i := range b.us {
		xadj[b.us[i]+1]++
		xadj[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	rowAdj := make([]int32, xadj[n])
	rowW := make([]int32, xadj[n])
	cursor := make([]int32, n)
	copy(cursor, xadj[:n])
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		rowAdj[cursor[u]] = v
		rowW[cursor[u]] = w
		cursor[u]++
		rowAdj[cursor[v]] = u
		rowW[cursor[v]] = w
		cursor[v]++
	}
	adj, ew := sortRows(xadj, rowAdj, rowW, cursor)
	// Merge duplicate neighbors in place; the write index never passes the
	// read index, so xadj[v+1] can be rewritten once row v has been read.
	out := int32(0)
	lo := xadj[0]
	for v := 0; v < n; v++ {
		hi := xadj[v+1]
		for i := lo; i < hi; i++ {
			if i > lo && adj[i] == adj[out-1] {
				ew[out-1] += ew[i]
				continue
			}
			adj[out], ew[out] = adj[i], ew[i]
			out++
		}
		lo = hi
		xadj[v+1] = out
	}
	return &Graph{
		numV:  n,
		nCon:  b.nCon,
		xadj:  xadj,
		adj:   adj[:out:out],
		edgeW: ew[:out:out],
		vw:    append([]int64(nil), b.vw...),
	}
}

// sortRows returns the rows of a symmetric CSR matrix sorted by neighbor
// id, without comparing anything: entry (u, v, w) of row u is written to
// row v as (v, u, w) while u ascends, so every output row fills in
// ascending neighbor order, and because the matrix is symmetric the output
// is the input with sorted rows (duplicates stay, now adjacent). cursor is
// scratch of len(xadj)-1.
func sortRows(xadj, rowAdj, rowW, cursor []int32) ([]int32, []int32) {
	n := len(xadj) - 1
	adj := make([]int32, len(rowAdj))
	ew := make([]int32, len(rowW))
	copy(cursor, xadj[:n])
	for u := 0; u < n; u++ {
		for i := xadj[u]; i < xadj[u+1]; i++ {
			c := cursor[rowAdj[i]]
			adj[c] = int32(u)
			ew[c] = rowW[i]
			cursor[rowAdj[i]] = c + 1
		}
	}
	return adj, ew
}

// NewFromCSR constructs a Graph directly from CSR arrays, which the graph
// takes over (not copied). It checks nothing: the caller owns every
// invariant Validate lists. Its callers are the code that builds CSR
// natively — the partitioner's coarsening step, whose rows are unsorted,
// and episim.BuildBipartiteGraph — and their check is a differential test
// against a Builder-built graph (rows sorted first), not a run-time one.
func NewFromCSR(nCon int, xadj, adj, edgeW []int32, vw []int64) *Graph {
	numV := len(xadj) - 1
	return &Graph{numV: numV, nCon: nCon, xadj: xadj, adj: adj, edgeW: edgeW, vw: vw}
}

// InducedSubgraph extracts the subgraph induced by the given vertices
// (which must be distinct); vertex i of the result is vertices[i]. Used by
// recursive bisection, whose selections ascend: renumbering is then
// monotone and the filtered rows are already sorted. Any other order takes
// one sortRows pass.
func (g *Graph) InducedSubgraph(vertices []int32) *Graph {
	toNew := make([]int32, g.numV)
	for i := range toNew {
		toNew[i] = -1
	}
	ascending := true
	bound := 0
	for i, v := range vertices {
		toNew[v] = int32(i)
		ascending = ascending && (i == 0 || vertices[i-1] < v)
		bound += g.Degree(int(v))
	}
	n := len(vertices)
	xadj := make([]int32, n+1)
	adj := make([]int32, 0, bound)
	ew := make([]int32, 0, bound)
	vw := make([]int64, 0, n*g.nCon)
	for i, v := range vertices {
		vw = append(vw, g.VertexWeights(int(v))...)
		nbrs, ws := g.Neighbors(int(v))
		for j, u := range nbrs {
			if nu := toNew[u]; nu >= 0 {
				adj = append(adj, nu)
				ew = append(ew, ws[j])
			}
		}
		xadj[i+1] = int32(len(adj))
	}
	if !ascending {
		adj, ew = sortRows(xadj, adj, ew, make([]int32, n))
	}
	return &Graph{numV: n, nCon: g.nCon, xadj: xadj, adj: adj, edgeW: ew, vw: vw}
}
