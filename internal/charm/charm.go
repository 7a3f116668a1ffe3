// Package charm is a Charm++-like message-driven runtime in pure Go: the
// substrate substituting for Charm++ on Blue Waters (the paper's execution
// model, Section II-C). It provides:
//
//   - chare arrays over-decomposed onto processing elements (PEs), with
//     pluggable index→PE placement (this is where RR vs GP distributions
//     plug in);
//   - asynchronous messaging between chares with per-destination
//     application-level message aggregation (Section IV-C);
//   - phase synchronization by completion detection — the runtime detects
//     when every produced message has been consumed (Section IV-B) — with
//     a quiescence-detection mode kept for comparison;
//   - contribution-based reductions (global system state updates,
//     Section II-B step 6);
//   - an SMP topology (PEs grouped into processes and nodes, Section IV-A)
//     used to classify every message's locality, which the machine model
//     prices.
//
// Two execution modes run the same chare code: a deterministic sequential
// scheduler (used for large logical-PE sweeps) and a parallel mode with one
// goroutine per PE and a polling completion detector (real concurrency).
// Counters (messages, wire messages after aggregation, locality classes,
// per-PE traffic) are identical in both modes; equality of the two is a
// test oracle.
package charm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PE identifies a processing element (a core-module in the paper's terms).
type PE = int32

// Message is any chare-to-chare payload.
type Message interface{}

// Sized lets a message report its wire size in bytes; unsized messages are
// accounted at DefaultMessageBytes.
type Sized interface {
	WireSize() int
}

// DefaultMessageBytes is the accounted size of messages that do not
// implement Sized (headers dominate small messages on Gemini-class nets).
const DefaultMessageBytes = 64

// ChareRef addresses a chare: array id + element index.
type ChareRef struct {
	Array int32
	Index int32
}

// Chare is a message-driven object. Recv is invoked once per message; it
// may send further messages through the context.
type Chare interface {
	Recv(ctx *Ctx, msg Message)
}

// Locality classifies a message by how far it travels in the SMP topology.
type Locality uint8

// Locality classes, cheapest first.
const (
	LocalPE Locality = iota
	IntraProc
	IntraNode
	InterNode
	numLocality
)

func (l Locality) String() string {
	switch l {
	case LocalPE:
		return "local"
	case IntraProc:
		return "intra-proc"
	case IntraNode:
		return "intra-node"
	case InterNode:
		return "inter-node"
	}
	return fmt.Sprintf("Locality(%d)", uint8(l))
}

// Topology describes the SMP geometry: PEs are packed contiguously into
// processes, and processes into nodes (Section IV-A's k processes per
// node). The zero value means one process on one node holds all PEs.
type Topology struct {
	PEsPerProc   int
	ProcsPerNode int
}

func (t Topology) normalized(pes int) Topology {
	if t.PEsPerProc <= 0 {
		t.PEsPerProc = pes
		if t.PEsPerProc < 1 {
			t.PEsPerProc = 1
		}
	}
	if t.ProcsPerNode <= 0 {
		t.ProcsPerNode = 1
	}
	return t
}

// ProcOf returns the process index of a PE.
func (t Topology) ProcOf(pe PE) int32 { return pe / int32(t.PEsPerProc) }

// NodeOf returns the node index of a PE.
func (t Topology) NodeOf(pe PE) int32 {
	return t.ProcOf(pe) / int32(t.ProcsPerNode)
}

// Classify returns the locality class of a src→dst message.
func (t Topology) Classify(src, dst PE) Locality {
	switch {
	case src == dst:
		return LocalPE
	case t.ProcOf(src) == t.ProcOf(dst):
		return IntraProc
	case t.NodeOf(src) == t.NodeOf(dst):
		return IntraNode
	default:
		return InterNode
	}
}

// SyncMode selects the phase synchronization protocol.
type SyncMode uint8

const (
	// CompletionDetection detects that all produced messages were consumed
	// (applicable per module; the paper's choice).
	CompletionDetection SyncMode = iota
	// QuiescenceDetection detects global application quiescence (requires
	// whole-application idleness and more confirmation rounds).
	QuiescenceDetection
)

// Config configures a Runtime.
type Config struct {
	PEs      int
	Parallel bool
	Topology Topology
	// AggBufferSize is the per-destination aggregation buffer capacity in
	// messages; 0 disables aggregation (every message is its own wire
	// message).
	AggBufferSize int
	// Route2D enables TRAM-style topological routing (the paper's
	// footnote 1): PEs form a virtual √P×√P mesh and messages travel
	// src → (row of src, column of dst) → dst, so each PE keeps ~2√P
	// aggregation buffers instead of P and buffers fill better at scale.
	// Requires AggBufferSize > 0. Messages are still delivered exactly
	// once; the intermediate hop only re-buffers.
	Route2D  bool
	SyncMode SyncMode
}

// PhaseStats reports what happened between two Drain calls.
type PhaseStats struct {
	// Messages is the number of chare-level messages delivered.
	Messages int64
	// WireMessages is the number of transport sends after aggregation
	// (equals Messages when aggregation is off; local-PE delivery never
	// hits the wire).
	WireMessages int64
	// Bytes is the total payload volume (chare-level).
	Bytes int64
	// ByLocality and WireByLocality split the above by distance class.
	ByLocality     [4]int64
	WireByLocality [4]int64
	// SyncRounds counts detector iterations needed to declare completion.
	SyncRounds int
	// Reductions holds the merged contributions of the phase.
	Reductions map[string]int64
	// PerPE is indexed by PE; nil unless Config.PEs > 0 (always set).
	PerPE []PETraffic
}

// PETraffic is one PE's traffic during a phase.
type PETraffic struct {
	MsgsIn, MsgsOut int64
	WireOut         [4]int64
	BytesOut        int64
	Delivered       int64 // chare Recv invocations
}

// Runtime executes chare arrays over PEs.
type Runtime struct {
	cfg    Config
	topo   Topology
	arrays []*array

	queues [][]envelope // per-PE pending chare-level messages (sequential)
	agg    []map[PE][]envelope
	stats  PhaseStats

	mu           sync.Mutex // guards contributions in parallel mode
	contribution map[string]int64
}

type array struct {
	chares    []Chare
	placement []PE
}

type envelope struct {
	to  ChareRef
	msg Message
	src PE
	// relay marks an envelope parked at a 2D-routing intermediate: it must
	// be re-dispatched toward its destination, not delivered to a chare.
	relay bool
}

// New creates a runtime. Arrays must be registered before the first Drain.
func New(cfg Config) *Runtime {
	if cfg.PEs < 1 {
		cfg.PEs = 1
	}
	if cfg.AggBufferSize < 0 {
		cfg.AggBufferSize = 0
	}
	rt := &Runtime{
		cfg:  cfg,
		topo: cfg.Topology.normalized(cfg.PEs),
	}
	rt.queues = make([][]envelope, cfg.PEs)
	rt.agg = make([]map[PE][]envelope, cfg.PEs)
	rt.resetPhase()
	return rt
}

// NumPEs returns the configured PE count.
func (rt *Runtime) NumPEs() int { return rt.cfg.PEs }

// TopologyInfo returns the normalized topology.
func (rt *Runtime) TopologyInfo() Topology { return rt.topo }

// NewArray registers a chare array: n elements built by factory, placed on
// PEs by placement (defaults to round-robin when nil). It returns the
// array id used in ChareRefs.
func (rt *Runtime) NewArray(n int, factory func(i int32) Chare, placement func(i int32) PE) int32 {
	a := &array{
		chares:    make([]Chare, n),
		placement: make([]PE, n),
	}
	for i := int32(0); i < int32(n); i++ {
		a.chares[i] = factory(i)
		if placement != nil {
			pe := placement(i)
			if pe < 0 || int(pe) >= rt.cfg.PEs {
				panic(fmt.Sprintf("charm: placement of element %d on PE %d outside [0,%d)", i, pe, rt.cfg.PEs))
			}
			a.placement[i] = pe
		} else {
			a.placement[i] = i % int32(rt.cfg.PEs)
		}
	}
	rt.arrays = append(rt.arrays, a)
	return int32(len(rt.arrays) - 1)
}

// PlacementOf returns the PE hosting a chare.
func (rt *Runtime) PlacementOf(ref ChareRef) PE {
	return rt.arrays[ref.Array].placement[ref.Index]
}

// Chare returns the chare object behind a reference (for tests and for
// driver-side inspection between phases).
func (rt *Runtime) Chare(ref ChareRef) Chare {
	return rt.arrays[ref.Array].chares[ref.Index]
}

// ArrayLen returns the number of elements in an array.
func (rt *Runtime) ArrayLen(arrayID int32) int { return len(rt.arrays[arrayID].chares) }

// Broadcast enqueues msg for every element of the array (driver-side; not
// counted as point-to-point traffic, mirroring Charm++'s optimized
// broadcast trees).
func (rt *Runtime) Broadcast(arrayID int32, msg Message) {
	a := rt.arrays[arrayID]
	for i := range a.chares {
		pe := a.placement[i]
		rt.queues[pe] = append(rt.queues[pe], envelope{
			to:  ChareRef{Array: arrayID, Index: int32(i)},
			msg: msg,
			src: pe, // broadcast delivery is local to the hosting PE
		})
	}
}

// Send enqueues a driver-side point-to-point message (rarely needed; chare
// sends go through Ctx.Send). It is attributed to the destination PE.
func (rt *Runtime) Send(to ChareRef, msg Message) {
	pe := rt.PlacementOf(to)
	rt.queues[pe] = append(rt.queues[pe], envelope{to: to, msg: msg, src: pe})
}

func (rt *Runtime) resetPhase() {
	rt.stats = PhaseStats{
		Reductions: make(map[string]int64),
		PerPE:      make([]PETraffic, rt.cfg.PEs),
	}
	rt.contribution = make(map[string]int64)
	for pe := range rt.agg {
		rt.agg[pe] = nil
	}
}

// Ctx is passed to chare Recv methods.
type Ctx struct {
	rt *Runtime
	pe PE
	// sequential-mode send sink; parallel mode uses worker-local sinks.
	sendLocal func(env envelope)
}

// PE returns the PE executing the current chare.
func (c *Ctx) PE() PE { return c.pe }

// Send delivers msg to another chare asynchronously.
func (c *Ctx) Send(to ChareRef, msg Message) {
	c.sendLocal(envelope{to: to, msg: msg, src: c.pe})
}

// Contribute adds val into the named phase reduction (sum).
func (c *Ctx) Contribute(key string, val int64) {
	c.rt.mu.Lock()
	c.rt.contribution[key] += val
	c.rt.mu.Unlock()
}

func msgBytes(m Message) int64 {
	if s, ok := m.(Sized); ok {
		return int64(s.WireSize())
	}
	return DefaultMessageBytes
}

// Drain processes all pending messages (including those produced while
// draining) until the phase completes, then returns the phase statistics
// and resets them. In parallel mode the drain runs one goroutine per PE
// and uses a completion/quiescence detector; in sequential mode the
// scheduler visits PEs round-robin, flushing aggregation buffers whenever
// a PE runs out of local work (the same flush rule the parallel workers
// use).
func (rt *Runtime) Drain() PhaseStats {
	if rt.cfg.Parallel {
		return rt.drainParallel()
	}
	return rt.drainSequential()
}

// account records a chare-level send and returns whether it must be
// aggregated (non-local with aggregation enabled).
func (rt *Runtime) account(env envelope) (dst PE, loc Locality) {
	dst = rt.PlacementOf(env.to)
	loc = rt.topo.Classify(env.src, dst)
	b := msgBytes(env.msg)
	rt.stats.Messages++
	rt.stats.Bytes += b
	rt.stats.ByLocality[loc]++
	pp := &rt.stats.PerPE[env.src]
	pp.MsgsOut++
	pp.BytesOut += b
	rt.stats.PerPE[dst].MsgsIn++
	return dst, loc
}

// meshWidth returns the virtual mesh width for 2D routing.
func (rt *Runtime) meshWidth() int32 {
	w := int32(1)
	for w*w < int32(rt.cfg.PEs) {
		w++
	}
	return w
}

// intermediate returns the 2D-routing relay PE for src→dst (row of src,
// column of dst), or dst when no useful relay exists.
func (rt *Runtime) intermediate(src, dst PE) PE {
	w := rt.meshWidth()
	inter := (src/w)*w + dst%w
	if inter >= int32(rt.cfg.PEs) || inter == src || inter == dst {
		return dst
	}
	return inter
}

// wireSend records transport-level sends for a batch heading src→dst.
func (rt *Runtime) wireSend(src, dst PE, batch int) {
	if batch == 0 {
		return
	}
	loc := rt.topo.Classify(src, dst)
	if loc == LocalPE {
		return // local delivery never hits the wire
	}
	rt.stats.WireMessages++
	rt.stats.WireByLocality[loc]++
	rt.stats.PerPE[src].WireOut[loc]++
}

func (rt *Runtime) drainSequential() PhaseStats {
	pes := rt.cfg.PEs
	// forward moves env one hop toward its destination from PE `from`,
	// buffering per next hop (the 2D-routing relay when enabled).
	var forward func(env envelope, from PE)
	forward = func(env envelope, from PE) {
		final := rt.PlacementOf(env.to)
		next := final
		if rt.cfg.Route2D && rt.cfg.AggBufferSize > 0 {
			next = rt.intermediate(from, final)
		}
		env.src = from
		env.relay = next != final
		loc := rt.topo.Classify(from, next)
		if loc == LocalPE || rt.cfg.AggBufferSize == 0 {
			rt.wireSend(from, next, 1)
			rt.queues[next] = append(rt.queues[next], env)
			return
		}
		if rt.agg[from] == nil {
			rt.agg[from] = make(map[PE][]envelope)
		}
		buf := append(rt.agg[from][next], env)
		if len(buf) >= rt.cfg.AggBufferSize {
			rt.wireSend(from, next, len(buf))
			rt.queues[next] = append(rt.queues[next], buf...)
			buf = buf[:0]
		}
		rt.agg[from][next] = buf
	}
	dispatch := func(env envelope) {
		rt.account(env)
		forward(env, env.src)
	}
	ctxs := make([]Ctx, pes)
	for pe := range ctxs {
		ctxs[pe] = Ctx{rt: rt, pe: PE(pe), sendLocal: dispatch}
	}

	for {
		work := false
		for pe := 0; pe < pes; pe++ {
			for len(rt.queues[pe]) > 0 {
				work = true
				q := rt.queues[pe]
				rt.queues[pe] = nil
				for _, env := range q {
					if env.relay {
						forward(env, PE(pe))
						continue
					}
					a := rt.arrays[env.to.Array]
					rt.stats.PerPE[pe].Delivered++
					a.chares[env.to.Index].Recv(&ctxs[pe], env.msg)
				}
			}
			// PE out of local work: flush its aggregation buffers, the
			// same rule PMs use after producing all visit messages.
			for dst, buf := range rt.agg[pe] {
				if len(buf) > 0 {
					rt.wireSend(PE(pe), dst, len(buf))
					rt.queues[dst] = append(rt.queues[dst], buf...)
					work = true
				}
				delete(rt.agg[pe], dst)
			}
		}
		if !work {
			break
		}
	}
	// Detector accounting: completion detection confirms produced==consumed
	// once more after first seeing it; quiescence detection additionally
	// re-confirms global idleness of the whole application.
	rt.stats.SyncRounds = 2
	if rt.cfg.SyncMode == QuiescenceDetection {
		rt.stats.SyncRounds = 4
	}
	return rt.finishPhase()
}

func (rt *Runtime) finishPhase() PhaseStats {
	out := rt.stats
	out.Reductions = rt.contribution
	rt.resetPhase()
	return out
}

// drainParallel runs one goroutine per PE until the completion detector
// fires: all workers idle with every produced message consumed, confirmed
// twice (Dijkstra-style double check).
func (rt *Runtime) drainParallel() PhaseStats {
	pes := rt.cfg.PEs
	var produced, consumed atomic.Int64
	var idleCount atomic.Int64
	var done atomic.Bool

	inboxes := make([]struct {
		mu sync.Mutex
		q  []envelope
	}, pes)
	// Seed inboxes with driver-enqueued messages.
	for pe := 0; pe < pes; pe++ {
		inboxes[pe].q = append(inboxes[pe].q, rt.queues[pe]...)
		produced.Add(int64(len(rt.queues[pe])))
		rt.queues[pe] = nil
	}

	var statsMu sync.Mutex
	perPE := make([]PETraffic, pes)
	msgsIn := make([]atomic.Int64, pes)
	var totalMsgs, totalWire, totalBytes int64
	var byLoc, wireByLoc [4]int64

	var wg sync.WaitGroup
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			agg := make(map[PE][]envelope)
			var local PETraffic
			var msgs, wire, bytes int64
			var locCount, wireCount [4]int64

			deliver := func(dst PE, batch []envelope) {
				produced.Add(int64(len(batch)))
				box := &inboxes[dst]
				box.mu.Lock()
				box.q = append(box.q, batch...)
				box.mu.Unlock()
			}
			// forward moves env one hop toward its destination (via the 2D
			// relay when routing is on), buffering per next hop.
			forward := func(env envelope, from PE) {
				final := rt.PlacementOf(env.to)
				next := final
				if rt.cfg.Route2D && rt.cfg.AggBufferSize > 0 {
					next = rt.intermediate(from, final)
				}
				env.src = from
				env.relay = next != final
				loc := rt.topo.Classify(from, next)
				if loc == LocalPE || rt.cfg.AggBufferSize == 0 {
					if loc != LocalPE {
						wire++
						wireCount[loc]++
						local.WireOut[loc]++
					}
					deliver(next, []envelope{env})
					return
				}
				buf := append(agg[next], env)
				if len(buf) >= rt.cfg.AggBufferSize {
					wire++
					wireCount[loc]++
					local.WireOut[loc]++
					deliver(next, buf)
					buf = nil
				}
				agg[next] = buf
			}
			dispatch := func(env envelope) {
				dst := rt.PlacementOf(env.to)
				loc := rt.topo.Classify(env.src, dst)
				b := msgBytes(env.msg)
				msgs++
				bytes += b
				locCount[loc]++
				local.MsgsOut++
				local.BytesOut += b
				msgsIn[dst].Add(1)
				forward(env, env.src)
			}
			ctx := Ctx{rt: rt, pe: PE(pe), sendLocal: dispatch}

			idle := false
			for !done.Load() {
				box := &inboxes[pe]
				box.mu.Lock()
				q := box.q
				box.q = nil
				box.mu.Unlock()
				if len(q) == 0 {
					// Flush aggregation buffers before going idle.
					flushed := false
					for dst, buf := range agg {
						if len(buf) > 0 {
							loc := rt.topo.Classify(PE(pe), dst)
							wire++
							wireCount[loc]++
							local.WireOut[loc]++
							deliver(dst, buf)
							flushed = true
						}
						delete(agg, dst)
					}
					if flushed {
						continue
					}
					if !idle {
						idle = true
						idleCount.Add(1)
					}
					time.Sleep(20 * time.Microsecond)
					continue
				}
				if idle {
					idle = false
					idleCount.Add(-1)
				}
				for _, env := range q {
					if env.relay {
						forward(env, PE(pe))
						continue
					}
					a := rt.arrays[env.to.Array]
					local.Delivered++
					a.chares[env.to.Index].Recv(&ctx, env.msg)
				}
				consumed.Add(int64(len(q)))
			}

			statsMu.Lock()
			perPE[pe] = local
			totalMsgs += msgs
			totalWire += wire
			totalBytes += bytes
			for i := range locCount {
				byLoc[i] += locCount[i]
				wireByLoc[i] += wireCount[i]
			}
			statsMu.Unlock()
		}(pe)
	}

	// Completion detector: all PEs idle and produced == consumed, observed
	// stable across two polls.
	rounds := 0
	confirmed := 0
	need := 2
	if rt.cfg.SyncMode == QuiescenceDetection {
		need = 4
	}
	for {
		time.Sleep(50 * time.Microsecond)
		rounds++
		if idleCount.Load() == int64(pes) {
			p, c := produced.Load(), consumed.Load()
			if p == c {
				confirmed++
				if confirmed >= need {
					break
				}
				continue
			}
		}
		confirmed = 0
	}
	done.Store(true)
	wg.Wait()
	for pe := 0; pe < pes; pe++ {
		perPE[pe].MsgsIn = msgsIn[pe].Load()
	}

	rt.stats.Messages = totalMsgs
	rt.stats.WireMessages = totalWire
	rt.stats.Bytes = totalBytes
	rt.stats.ByLocality = byLoc
	rt.stats.WireByLocality = wireByLoc
	rt.stats.SyncRounds = rounds
	rt.stats.PerPE = perPE
	return rt.finishPhase()
}
