package partition

import (
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Options tunes the multilevel partitioner.
type Options struct {
	// Imbalance is the allowed per-constraint overweight ε: each part may
	// weigh up to (1+ε)·target. This is METIS's load balance constraint
	// knob, "the tolerable variance in the sum of vertex weights per
	// partition" (Section III-A). Default 0.10.
	Imbalance float64
	// Seed makes partitioning deterministic. Default 1.
	Seed uint64
	// CoarsestSize stops coarsening when the graph is this small.
	// Default 120 vertices.
	CoarsestSize int
	// InitTries is the number of greedy-growing attempts for the initial
	// bisection of the coarsest graph. Default 4.
	InitTries int
	// MaxPasses bounds FM refinement passes per level. Default 6.
	MaxPasses int
}

func (o Options) withDefaults() Options {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CoarsestSize <= 0 {
		o.CoarsestSize = 120
	}
	if o.InitTries <= 0 {
		o.InitTries = 4
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 6
	}
	return o
}

// Multilevel partitions g into k parts by multilevel recursive bisection:
// heavy-edge-matching coarsening, greedy graph growing on the coarsest
// graph, and boundary Fiduccia–Mattheyses refinement during uncoarsening —
// the METIS algorithm family the paper uses, including multi-constraint
// balance (every component of the vertex weight vectors is balanced
// independently).
func Multilevel(g *graph.Graph, k int, opt Options) *Partitioning {
	opt = opt.withDefaults()
	n := g.NumVertices()
	p := &Partitioning{K: k, Assign: make([]int32, n)}
	if k <= 1 || n == 0 {
		if k < 1 {
			p.K = 1
		}
		return p
	}

	// Recursive bisection compounds imbalance multiplicatively across
	// levels; divide the user's ε budget so the final k-way imbalance
	// lands near the requested tolerance.
	levels := 1
	for 1<<levels < k {
		levels++
	}
	perLevel := opt.Imbalance / float64(levels)
	if perLevel < 0.02 {
		perLevel = 0.02
	}
	opt.Imbalance = perLevel

	type job struct {
		sub   *graph.Graph
		verts []int32 // sub vertex -> original vertex; nil = identity
		k     int
		base  int32
	}
	wk := newWorkspace(g)
	stack := []job{{sub: g, k: k, base: 0}}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nSub := j.sub.NumVertices()
		if j.k == 1 || nSub == 0 {
			for v := 0; v < nSub; v++ {
				p.Assign[origID(j.verts, v)] = j.base
			}
			continue
		}
		k1 := j.k / 2
		f := float64(k1) / float64(j.k)
		seed := xrand.Hash(opt.Seed, uint64(j.base), uint64(j.k))
		side := bisect(j.sub, f, opt, seed, wk)

		// Both selections ascend, in one array: side 0 fills it from the
		// front, side 1 from its own offset.
		n0 := 0
		for _, sd := range side {
			if sd == 0 {
				n0++
			}
		}
		sel := make([]int32, nSub)
		v0, v1 := sel[:0:n0], sel[n0:n0]
		for v, sd := range side {
			if sd == 0 {
				v0 = append(v0, int32(v))
			} else {
				v1 = append(v1, int32(v))
			}
		}
		s0, s1 := j.sub.InducedSubgraph(v0), j.sub.InducedSubgraph(v1)
		for i, sv := range sel {
			sel[i] = origID(j.verts, int(sv))
		}
		stack = append(stack,
			job{sub: s0, verts: v0, k: k1, base: j.base},
			job{sub: s1, verts: v1, k: j.k - k1, base: j.base + int32(k1)},
		)
	}
	return p
}

func origID(verts []int32, v int) int32 {
	if verts == nil {
		return int32(v)
	}
	return verts[v]
}

// workspace is the scratch of one Multilevel call, sized by the top-level
// graph — every coarse graph and every bisection's subgraph is smaller —
// and reused by every coarsening level, refinement pass and bisection of
// that call. It belongs to the call: concurrent builds share nothing.
type workspace struct {
	side   []int8  // bisect: the bisection being projected and refined
	match  []int32 // contract: matching partner
	pos    []int32 // contract: coarse neighbor -> its slot in the row being merged
	rowAdj []int32 // contract: coarse rows in first-seen order, before the sorting transpose
	rowW   []int64
	cursor []int32   // contract: per-row write cursor of the transpose
	gain   []int64   // refine2way: FM gain; initialBisect: weight into the region
	ext    []int32   // refine2way: number of neighbors on the other side
	moved  []bool    // refine2way: moved this pass; initialBisect: in the region
	queue  gainQueue // refine2way, initialBisect
}

func newWorkspace(g *graph.Graph) *workspace {
	n, m := g.NumVertices(), 2*g.NumEdges()
	return &workspace{
		side:   make([]int8, n),
		match:  make([]int32, n),
		pos:    make([]int32, n),
		rowAdj: make([]int32, m),
		rowW:   make([]int64, m),
		cursor: make([]int32, n),
		gain:   make([]int64, n),
		ext:    make([]int32, n),
		moved:  make([]bool, n),
	}
}

// bisect splits g into sides 0/1 where side 0 targets fraction f of every
// constraint total. The returned slice is wk.side: valid until the next
// bisect on the same workspace.
func bisect(g *graph.Graph, f float64, opt Options, seed uint64, wk *workspace) []int8 {
	s := xrand.NewStream(seed)
	// Coarsening phase.
	graphs := []*graph.Graph{g}
	var cmaps [][]int32
	for graphs[len(graphs)-1].NumVertices() > opt.CoarsestSize {
		cur := graphs[len(graphs)-1]
		cmap, coarse := contract(cur, s, wk)
		if coarse.NumVertices() > cur.NumVertices()*95/100 {
			break // matching stalled (e.g. star graphs); stop coarsening
		}
		graphs = append(graphs, coarse)
		cmaps = append(cmaps, cmap)
	}

	// Initial bisection on the coarsest graph.
	coarsest := graphs[len(graphs)-1]
	side := wk.side[:coarsest.NumVertices()]
	copy(side, initialBisect(coarsest, f, opt, s, wk))
	refine2way(coarsest, side, f, opt, wk)

	// Uncoarsen with refinement at every level. contract numbers coarse
	// vertices by their first fine vertex, so cmap[v] <= v and projecting
	// from the last fine vertex down overwrites no coarse side still to be
	// read: one array serves every level.
	for lvl := len(graphs) - 2; lvl >= 0; lvl-- {
		fine := graphs[lvl]
		cmap := cmaps[lvl]
		side = wk.side[:fine.NumVertices()]
		for v := len(side) - 1; v >= 0; v-- {
			side[v] = side[cmap[v]]
		}
		refine2way(fine, side, f, opt, wk)
	}
	return side
}

// contract performs one level of heavy-edge matching coarsening. It
// returns the fine→coarse vertex map and the coarse graph, which it writes
// as CSR: each coarse row is the one or two fine rows of its members mapped
// through cmap, with duplicate coarse neighbors summed through a dense
// position marker, and one transpose of the (symmetric) result sorts every
// row by neighbor id.
func contract(g *graph.Graph, s *xrand.Stream, wk *workspace) ([]int32, *graph.Graph) {
	n := g.NumVertices()
	match := wk.match[:n]
	for i := range match {
		match[i] = -1
	}
	order := s.Perm(n)
	for _, vi := range order {
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
	// A coarse vertex is numbered when its lower-numbered member comes up.
	cmap := make([]int32, n)
	var numCoarse int32
	for v := 0; v < n; v++ {
		if m := match[v]; int(m) >= v {
			cmap[v], cmap[m] = numCoarse, numCoarse
			numCoarse++
		}
	}

	nCon := g.NumConstraints()
	vw := make([]int64, int(numCoarse)*nCon)
	xadj := make([]int32, numCoarse+1)
	pos := wk.pos[:numCoarse]
	for i := range pos {
		pos[i] = -1
	}
	rowAdj, rowW := wk.rowAdj, wk.rowW
	out := int32(0)
	for v := 0; v < n; v++ {
		m := int(match[v])
		if m < v {
			continue // merged when its partner came up
		}
		cv := cmap[v]
		cvw := vw[int(cv)*nCon : (int(cv)+1)*nCon]
		start := out
		xadj[cv] = start
		for fv := v; ; fv = m { // the members of cv: v, then its partner if it has one
			for c, w := range g.VertexWeights(fv) {
				cvw[c] += w
			}
			nbrs, ws := g.Neighbors(fv)
			for i, u := range nbrs {
				cu := cmap[u]
				if cu == cv {
					continue // the matched edge collapses into the coarse vertex
				}
				// Slots only grow, so a position an earlier row left in
				// pos is below this row's start.
				if p := pos[cu]; p >= start {
					rowW[p] += ws[i]
					continue
				}
				pos[cu] = out
				rowAdj[out], rowW[out] = cu, ws[i]
				out++
			}
			if fv == m {
				break
			}
		}
	}
	xadj[numCoarse] = out

	adj := make([]int32, out)
	ew := make([]int64, out)
	cursor := wk.cursor[:numCoarse]
	copy(cursor, xadj)
	for cv := int32(0); cv < numCoarse; cv++ {
		for i := xadj[cv]; i < xadj[cv+1]; i++ {
			c := cursor[rowAdj[i]]
			adj[c], ew[c] = cv, rowW[i]
			cursor[rowAdj[i]] = c + 1
		}
	}
	return cmap, graph.NewFromCSR(nCon, xadj, adj, ew, vw)
}

// initialBisect seeds side 0 by greedy graph growing: grow a region from a
// random vertex, always absorbing the frontier vertex most connected to the
// region, until side 0 holds fraction f of the (normalized) weight. The
// best of opt.InitTries attempts by edge cut wins.
func initialBisect(g *graph.Graph, f float64, opt Options, s *xrand.Stream, wk *workspace) []int8 {
	n := g.NumVertices()
	nCon := g.NumConstraints()
	totals := make([]int64, nCon)
	// caps[c] is side 0's share of constraint c with the ε slack.
	caps := make([]int64, nCon)
	for c := 0; c < nCon; c++ {
		totals[c] = g.TotalVertexWeight(c)
		caps[c] = int64((f + opt.Imbalance) * float64(totals[c]))
	}
	normTarget := f
	grown := make([]int64, nCon)
	normLoad := func() float64 {
		var sum float64
		var cnt int
		for c := 0; c < nCon; c++ {
			if totals[c] > 0 {
				sum += float64(grown[c]) / float64(totals[c])
				cnt++
			}
		}
		if cnt == 0 {
			return 1
		}
		return sum / float64(cnt)
	}
	// overCap reports whether absorbing v would push any constraint
	// beyond its cap — the growing loop must respect every constraint,
	// not just their average.
	overCap := func(v int32) bool {
		vw := g.VertexWeights(int(v))
		for c := 0; c < nCon; c++ {
			if totals[c] != 0 && grown[c]+vw[c] > caps[c] {
				return true
			}
		}
		return false
	}
	// conn[v]: edge weight from v into the region; frontier keyed by it.
	conn, inRegion, h := wk.gain[:n], wk.moved[:n], &wk.queue
	side, bestSide := make([]int8, n), make([]int8, n)
	var candidates []int32
	add := func(v int32) {
		inRegion[v] = true
		side[v] = 0
		vw := g.VertexWeights(int(v))
		for c := 0; c < nCon; c++ {
			grown[c] += vw[c]
		}
		nbrs, ws := g.Neighbors(int(v))
		for i, u := range nbrs {
			if !inRegion[u] {
				conn[u] += ws[i]
				h.push(gainEntry{gain: conn[u], v: u})
			}
		}
	}

	bestCut := int64(math.MaxInt64)
	for try := 0; try < opt.InitTries; try++ {
		for i := range side {
			side[i] = 1
		}
		clear(grown)
		clear(conn)
		clear(inRegion)
		h.reset()
		add(int32(s.Intn(n)))
		for normLoad() < normTarget {
			var next int32 = -1
			for h.len() > 0 {
				e := h.pop()
				if inRegion[e.v] || conn[e.v] != e.gain {
					continue // stale
				}
				if overCap(e.v) {
					continue // caps only tighten; v stays infeasible
				}
				next = e.v
				break
			}
			if next < 0 {
				// Frontier exhausted (disconnected graph or every frontier
				// vertex capped out): pick any feasible vertex, else stop.
				candidates = candidates[:0]
				for v := 0; v < n; v++ {
					if !inRegion[v] && !overCap(int32(v)) {
						candidates = append(candidates, int32(v))
					}
				}
				if len(candidates) == 0 {
					break
				}
				next = candidates[s.Intn(len(candidates))]
			}
			add(next)
		}
		cut := cutWeight(g, side)
		if cut < bestCut {
			bestCut = cut
			side, bestSide = bestSide, side
		}
	}
	return bestSide
}

func cutWeight(g *graph.Graph, side []int8) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) > v && side[u] != side[v] {
				cut += ws[i]
			}
		}
	}
	return cut
}

type gainEntry struct {
	gain int64
	v    int32
}

// before is the queue's order: higher gain first, then lower vertex id. It
// is total and entries that compare equal are identical, so the sequence a
// priority queue pops is a property of what was pushed, not of the queue.
func (a gainEntry) before(b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.v < b.v
}

// gainQueue is a binary max-heap of gainEntry by before, typed (nothing is
// boxed per push) and emptied by reset with its storage kept.
type gainQueue struct{ e []gainEntry }

func (q *gainQueue) len() int { return len(q.e) }
func (q *gainQueue) reset()   { q.e = q.e[:0] }

func (q *gainQueue) push(x gainEntry) {
	q.e = append(q.e, x)
	e := q.e
	i := len(e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(e[parent]) {
			break
		}
		e[i] = e[parent]
		i = parent
	}
	e[i] = x
}

func (q *gainQueue) pop() gainEntry {
	e := q.e
	top := e[0]
	n := len(e) - 1
	x := e[n]
	q.e = e[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e[r].before(e[child]) {
			child = r
		}
		if !e[child].before(x) {
			break
		}
		e[i] = e[child]
		i = child
	}
	e[i] = x // when the queue is now empty this rewrites the popped slot, harmlessly
	return top
}

// refine2way improves a bisection by boundary FM passes: repeatedly move
// the boundary vertex with the best gain (cut reduction) whose move keeps
// the destination within its multi-constraint capacity; each vertex moves
// at most once per pass. Moves out of an overweight side are allowed even
// at negative gain, which is what repairs balance violations left by
// projection from a coarser level.
func refine2way(g *graph.Graph, side []int8, f float64, opt Options, wk *workspace) {
	n := g.NumVertices()
	if n < 2 {
		return
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

	// gain[v] is the cut reduction of moving v, external minus internal
	// edge weight, and ext[v] counts v's external neighbors: functions of
	// side alone. They are computed here once, and every move below updates
	// all of v's neighbors, moved ones included, so both are still exact
	// when the next pass starts.
	gain, ext := wk.gain[:n], wk.ext[:n]
	for v := 0; v < n; v++ {
		var d int64
		var x int32
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			if side[u] == side[v] {
				d -= ws[i]
			} else {
				d += ws[i]
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
	// violationDelta returns the (normalized) change in total cap
	// violation if a vertex with weights vw moves src→dst: negative means
	// the move repairs balance.
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
	for pass := 0; pass < opt.MaxPasses; pass++ {
		h.reset()
		clear(moved)
		for v := 0; v < n; v++ {
			// The boundary, and isolated vertices: a balance move may need
			// one, and it can go anywhere for free.
			if ext[v] > 0 || g.Degree(v) == 0 {
				h.push(gainEntry{gain: gain[v], v: int32(v)})
			}
		}
		var passGain int64
		var passRepair float64
		movesMade := 0
		for h.len() > 0 {
			e := h.pop()
			v := int(e.v)
			if moved[v] || e.gain != gain[v] {
				continue // stale entry
			}
			src := side[v]
			dst := 1 - src
			vw := g.VertexWeights(v)
			if counts[src] <= 1 {
				continue
			}
			delta := violationDelta(src, dst, vw)
			// Accept cut-improving moves that do not hurt balance, and
			// balance-repairing moves at any gain (this is what fixes the
			// violations projection leaves behind).
			if !(delta < 0 || (gain[v] > 0 && delta <= 0)) {
				if gain[v] < 0 && !overweight(src) && !overweight(dst) {
					// Heap is gain-ordered and balance is already fine:
					// nothing below can help.
					break
				}
				continue
			}
			passRepair -= delta
			// Apply the move.
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
					gain[u] -= 2 * ws[i]
					ext[u]--
				} else {
					gain[u] += 2 * ws[i]
					ext[u]++
				}
				if !moved[u] { // a moved vertex is out of this pass
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
}
