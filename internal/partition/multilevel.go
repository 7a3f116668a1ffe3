package partition

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"

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
}

// Fixed tuning of the multilevel scheme.
const (
	coarsestSize = 120 // coarsening stops at this many vertices
	initTries    = 4   // greedy-growing attempts at the coarsest bisection
	maxPasses    = 6   // FM refinement passes per level
)

func (o Options) withDefaults() Options {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Multilevel partitions g into k parts by multilevel recursive bisection:
// heavy-edge-matching coarsening, greedy graph growing on the coarsest
// graph, and boundary Fiduccia–Mattheyses refinement during uncoarsening —
// the METIS algorithm family the paper uses, including multi-constraint
// balance (every component of the vertex weight vectors is balanced
// independently). Bisections of disjoint subgraphs may run on other
// goroutines (see busy); the result is the same on any number of cores.
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

	busy.Add(1)
	defer busy.Add(-1)
	r := recursion{assign: p.Assign, opt: opt}
	r.part(g, nil, k, 0, newWorkspace(g))
	return p
}

// busy counts the goroutines running Multilevel bisections in the process,
// across calls: each call counts its own, and a bisection hands its second
// subgraph to a new goroutine only while the count is below GOMAXPROCS. The
// count is process-wide because builds already run side by side (a sweep
// builds GP and GP-splitLoc at once): a budget per call put four goroutines,
// each with its own coarse hierarchy, on two cores, and was slower than
// none.
var busy atomic.Int32

// minSpawn is the fewest vertices a subgraph must have to be handed to a new
// goroutine; smaller ones cost less than the hand-over is worth.
const minSpawn = 2048

// recursion is what every bisection of one Multilevel call shares: the
// assignment, of which each bisection writes its own vertices' entries, and
// the options. Each bisection's seed is a function of the options' seed and
// of its own parts alone, so neither the order nor the goroutine the
// bisections run on changes a placement.
type recursion struct {
	assign []int32
	opt    Options
}

// part splits sub (k >= 2 parts, numbered from base) and recurses into both
// sides; vertex v of sub is vertex verts[v] of the input graph (nil: the
// identity).
func (r *recursion) part(sub *graph.Graph, verts []int32, k int, base int32, wk *workspace) {
	n := sub.NumVertices()
	k1 := k / 2
	f := float64(k1) / float64(k)
	seed := xrand.Hash(r.opt.Seed, uint64(base), uint64(k))
	side := bisect(sub, f, r.opt, seed, wk)

	// Both selections ascend, in one array: side 0 fills it from the
	// front, side 1 from its own offset.
	n0 := 0
	for _, sd := range side {
		if sd == 0 {
			n0++
		}
	}
	sel := make([]int32, n)
	v0, v1 := sel[:0:n0], sel[n0:n0]
	for v, sd := range side {
		if sd == 0 {
			v0 = append(v0, int32(v))
		} else {
			v1 = append(v1, int32(v))
		}
	}
	s0, s1 := induce(sub, v0, k1), induce(sub, v1, k-k1)
	for i, sv := range sel {
		sel[i] = origID(verts, int(sv))
	}
	base1 := base + int32(k1)
	if s1 != nil && len(v1) >= minSpawn && acquire() {
		// The second side runs beside the first on the part of wk the
		// first leaves alone; a panic there resurfaces here, where the
		// caller can recover it.
		lent := wk.lend(n0, n)
		done := make(chan any, 1)
		go func() {
			defer func() {
				busy.Add(-1)
				done <- recover()
			}()
			r.next(s1, v1, k-k1, base1, lent)
		}()
		r.next(s0, v0, k1, base, wk)
		busy.Add(-1) // idle while waiting: let another bisection run
		pv := <-done
		busy.Add(1)
		if pv != nil {
			panic(pv)
		}
		wk.reclaim(lent)
		return
	}
	r.next(s0, v0, k1, base, wk)
	r.next(s1, v1, k-k1, base1, wk)
}

// next places one side of a bisection: a single part takes all its
// vertices, an empty side has nothing to place, and any other is split.
func (r *recursion) next(sub *graph.Graph, verts []int32, k int, base int32, wk *workspace) {
	switch {
	case k == 1:
		for _, v := range verts {
			r.assign[v] = base
		}
	case len(verts) > 0:
		r.part(sub, verts, k, base, wk)
	}
}

// induce returns the subgraph of sub on sel when a bisection will split it
// further, and nil when it will not (one part, or no vertices).
func induce(sub *graph.Graph, sel []int32, k int) *graph.Graph {
	if k == 1 || len(sel) == 0 {
		return nil
	}
	return sub.InducedSubgraph(sel)
}

// acquire counts one more busy goroutine if the count is below GOMAXPROCS.
func acquire() bool {
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		b := busy.Load()
		if b >= procs {
			return false
		}
		if busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

func origID(verts []int32, v int) int32 {
	if verts == nil {
		return int32(v)
	}
	return verts[v]
}

// workspace is the scratch of one goroutine of a Multilevel call, sized by
// the top-level graph — every coarse graph and every bisection's subgraph
// is smaller — and reused by every coarsening level, refinement pass and
// bisection it runs. Concurrent builds share nothing; within a call, a
// spawned goroutine borrows part of its parent's (lend, reclaim).
type workspace struct {
	side  []int8       // bisect: the bisection being projected and refined
	match []int32      // contract: matching partner
	pos   []int32      // contract: matching order, then coarse neighbor -> its slot in the row
	gain  []int64      // refine2way: FM gain; initialBisect: weight into the region
	ext   []int32      // refine2way: number of neighbors on the other side
	moved []bool       // refine2way: moved this pass; initialBisect: in the region
	queue gainQueue    // refine2way, initialBisect
	neg   []gainEntry  // refine2way: the negative-gain entries held out of the queue
	i32   arena[int32] // contract: one bisection's cmaps, offsets and adjacency,
	ew    arena[int32] // its coarse edge weights
	i64   arena[int64] // and its coarse vertex weights, which die before bisect returns
}

// newWorkspace sizes each arena's chunks to what contract asks of it on g,
// at most: its cmap, offsets and adjacency; its edge weights; its vertex
// weights. Every later request, on g's coarse graphs or on a subgraph's,
// is smaller.
func newWorkspace(g *graph.Graph) *workspace {
	n, m := g.NumVertices(), 2*g.NumEdges()
	return &workspace{
		side:  make([]int8, n),
		match: make([]int32, n),
		pos:   make([]int32, n),
		gain:  make([]int64, n),
		ext:   make([]int32, n),
		moved: make([]bool, n),
		i32:   arena[int32]{size: 2*n + 1 + m},
		ew:    arena[int32]{size: m},
		i64:   arena[int64]{size: n * g.NumConstraints()},
	}
}

// lend returns the workspace of a goroutine that bisects the second
// subgraph of a bisection of n vertices, n0 of them in the first, while the
// caller goes on with the first on wk: the per-vertex arrays from n0 on,
// which the first never reaches, and a share of every arena's chunks in
// proportion to the second's vertices, so two hierarchies of half the size
// mostly fit in the chunks one hierarchy filled. Queues start empty.
func (wk *workspace) lend(n0, n int) *workspace {
	return &workspace{
		side:  wk.side[n0:],
		match: wk.match[n0:],
		pos:   wk.pos[n0:],
		gain:  wk.gain[n0:],
		ext:   wk.ext[n0:],
		moved: wk.moved[n0:],
		i32:   wk.i32.lend(n-n0, n),
		ew:    wk.ew.lend(n-n0, n),
		i64:   wk.i64.lend(n-n0, n),
	}
}

// reclaim takes back the chunks lent to w, and any it added, once its
// goroutine has ended.
func (wk *workspace) reclaim(w *workspace) {
	wk.i32.reclaim(&w.i32)
	wk.ew.reclaim(&w.ew)
	wk.i64.reclaim(&w.i64)
}

// arena is a bump allocator over chunks of one size, set from the top-level
// graph. A request takes the first chunk with room for it, so the small
// coarse levels fill what the large ones left; reset empties every chunk
// and keeps it, so a goroutine allocates the hierarchy of its largest
// bisection once.
type arena[T int32 | int64] struct {
	size   int   // length of a new chunk
	chunks [][]T // each of length size, or of one larger request
	used   []int // per chunk
	last   int   // the chunk of the latest alloc, which trim shortens
}

func (a *arena[T]) alloc(n int) []T {
	i := 0
	for i < len(a.chunks) && a.used[i]+n > len(a.chunks[i]) {
		i++
	}
	if i == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, max(n, a.size)))
		a.used = append(a.used, 0)
	}
	off := a.used[i]
	a.used[i], a.last = off+n, i
	return a.chunks[i][off : off+n : off+n]
}

// trim shortens s, the last slice alloc returned, to n, giving the rest back.
func (a *arena[T]) trim(s []T, n int) []T {
	a.used[a.last] -= len(s) - n
	return s[:n:n]
}

func (a *arena[T]) reset() { clear(a.used) }

// lend moves the share m/n of a's chunks to a new arena of the same chunk
// size.
func (a *arena[T]) lend(m, n int) arena[T] {
	keep := len(a.chunks) - len(a.chunks)*m/n
	b := arena[T]{
		size:   a.size,
		chunks: slices.Clone(a.chunks[keep:]),
		used:   make([]int, len(a.chunks)-keep),
	}
	a.chunks, a.used = a.chunks[:keep], a.used[:keep]
	return b
}

func (a *arena[T]) reclaim(b *arena[T]) {
	a.chunks = append(a.chunks, b.chunks...)
	a.used = append(a.used, b.used...)
}

// bisect splits g into sides 0/1 where side 0 targets fraction f of every
// constraint total. The returned slice is wk.side: valid until the next
// bisect on the same workspace.
func bisect(g *graph.Graph, f float64, opt Options, seed uint64, wk *workspace) []int8 {
	s := xrand.NewStream(seed)
	wk.i32.reset()
	wk.ew.reset()
	wk.i64.reset()
	// Coarsening phase.
	graphs := []*graph.Graph{g}
	var cmaps [][]int32
	for graphs[len(graphs)-1].NumVertices() > coarsestSize {
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
// returns the fine→coarse vertex map and the coarse graph, written as CSR
// into the workspace arenas: each coarse row is its members' fine rows mapped
// through cmap, duplicates summed through a dense position marker, in
// first-seen order (no reader of a coarse row depends on its order).
func contract(g *graph.Graph, s *xrand.Stream, wk *workspace) ([]int32, *graph.Graph) {
	n := g.NumVertices()
	match, order := wk.match[:n], wk.pos[:n]
	for i := range match {
		match[i] = -1
	}
	s.PermInt32(order)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		// The heaviest edge to an unmatched neighbor, ties to the lowest id
		// (a sorted row's first maximum) in a row of any order.
		nbrs, ws := g.Neighbors(int(v))
		best := int32(-1)
		var bestW int32 = -1
		for i, u := range nbrs {
			if match[u] < 0 && (ws[i] > bestW || ws[i] == bestW && u < best) {
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
	cmap := wk.i32.alloc(n)
	var numCoarse int32
	for v := 0; v < n; v++ {
		if m := match[v]; int(m) >= v {
			cmap[v], cmap[m] = numCoarse, numCoarse
			numCoarse++
		}
	}

	nCon := g.NumConstraints()
	vw := wk.i64.alloc(int(numCoarse) * nCon)
	clear(vw)
	xadj := wk.i32.alloc(int(numCoarse) + 1)
	pos := wk.pos[:numCoarse]
	for i := range pos {
		pos[i] = -1
	}
	// A coarse row is no longer than its members' rows together, less the
	// two entries of the edge a matched pair collapses.
	bound := 2*g.NumEdges() - 2*(n-int(numCoarse))
	adj, ew := wk.i32.alloc(bound), wk.ew.alloc(bound)
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
					ew[p] += ws[i]
					continue
				}
				pos[cu] = out
				adj[out], ew[out] = cu, ws[i]
				out++
			}
			if fv == m {
				break
			}
		}
	}
	xadj[numCoarse] = out
	return cmap, graph.NewFromCSR(nCon, xadj, wk.i32.trim(adj, int(out)), wk.ew.trim(ew, int(out)), vw)
}

// initialBisect seeds side 0 by greedy graph growing: grow a region from a
// random vertex, always absorbing the frontier vertex most connected to the
// region, until side 0 holds fraction f of the (normalized) weight. The
// best of initTries attempts by edge cut wins.
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
				conn[u] += int64(ws[i])
				h.push(gainEntry{gain: conn[u], v: u})
			}
		}
	}

	bestCut := int64(math.MaxInt64)
	for try := 0; try < initTries; try++ {
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
				cut += int64(ws[i])
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
	top, n := q.e[0], len(q.e)-1
	q.e[0], q.e = q.e[n], q.e[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

// heapify makes a heap of entries appended to q.e directly, in O(len).
func (q *gainQueue) heapify() {
	for i := len(q.e)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// down sifts q.e[i] down to its place.
func (q *gainQueue) down(i int) {
	e, n, x := q.e, len(q.e), q.e[i]
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
	e[i] = x
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
		var d, all, x int64
		sv := side[v]
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			o := int64(side[u] ^ sv) // 1 across the cut, 0 within a side
			d += o * int64(ws[i])
			all += int64(ws[i])
			x += o
		}
		gain[v] = 2*d - all
		ext[v] = int32(x)
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
	// within reports whether both sides stay within their caps once a vertex
	// with weights vw moves src→dst.
	within := func(src, dst int8, vw []int64) bool {
		for c := 0; c < nCon; c++ {
			if partW[src][c]-vw[c] > caps[src][c] || partW[dst][c]+vw[c] > caps[dst][c] {
				return false
			}
		}
		return true
	}

	// Every gain >= 0 pops before every negative one, and with balance fine
	// no pop of gain <= 0 is accepted, so the pass ends at the first: negative
	// entries wait unsorted in neg, heaped only if the heap runs dry with a
	// side overweight.
	moved, h, neg := wk.moved[:n], &wk.queue, wk.neg[:0]
	for pass := 0; pass < maxPasses; pass++ {
		h.reset()
		neg = neg[:0]
		clear(moved)
		for v := 0; v < n; v++ {
			// The boundary, and isolated vertices: a balance move may need
			// one, and it can go anywhere for free.
			if ext[v] > 0 || g.Degree(v) == 0 {
				if e := (gainEntry{gain: gain[v], v: int32(v)}); e.gain >= 0 {
					h.e = append(h.e, e)
				} else {
					neg = append(neg, e)
				}
			}
		}
		h.heapify()
		split := true
		var passGain int64
		var passRepair float64
		movesMade := 0
		over := overweight(0) || overweight(1)
		for {
			if h.len() == 0 && split && over {
				h.e, split = append(h.e, neg...), false
				h.heapify()
			}
			// With both sides within their caps a move is accepted only at a
			// positive gain, and a rejected pop changes nothing: once the
			// best gain left is not positive, no later pop can be accepted.
			if h.len() == 0 || !over && h.e[0].gain <= 0 {
				break
			}
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
			// Within caps before the move and after it, every term of
			// violationDelta is exactly 0.
			var delta float64
			if over || !within(src, dst, vw) {
				delta = violationDelta(src, dst, vw)
			}
			// Accept cut-improving moves that do not hurt balance, and
			// balance-repairing moves at any gain (this is what fixes the
			// violations projection leaves behind).
			if !(delta < 0 || (gain[v] > 0 && delta <= 0)) {
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
			over = overweight(0) || overweight(1)
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
				if moved[u] { // a moved vertex is out of this pass
					continue
				}
				if e := (gainEntry{gain: gain[u], v: u}); split && e.gain < 0 {
					neg = append(neg, e)
				} else {
					h.push(e)
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
	wk.neg = neg
}
