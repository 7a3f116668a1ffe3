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
//     Section II-B step 6).
//
// The runtime counts traffic; it does not price it. A chare-level send is
// local when the destination chare lives on the sending PE and remote
// otherwise, and every wire message is remote. How far a remote message
// travels on Blue Waters — same process, same node, torus hops — is the
// machine model's question (internal/machine), which the root package's
// perfmodel.go answers from the placement.
//
// The messaging layer exists once, as the methods of a per-PE worker:
// forward (routing, aggregation, wire counts), transmit (moving envelopes
// between PEs), flush, take and process. An envelope carries n chare-level
// messages — one for Ctx.Send, n for a Ctx.SendN batch, which its receiver
// handles in one Recv — and every counter charges it as n single sends:
// Delivered counts chare-level messages, and forward and flush count wire
// messages from the chare-level messages buffered per next hop. Two
// schedulers drive the same workers: a deterministic sequential one that
// visits PEs round-robin (used for large logical-PE sweeps) and a parallel
// one with a goroutine per PE and a polling completion detector (real
// concurrency). Everything a chare can observe, and every PhaseStats field
// that counts chare-level traffic — Messages, Bytes, ByLocality,
// Reductions, and per PE MsgsIn, MsgsOut, BytesOut and Delivered — is
// identical under both; equality of the two is a test oracle. WireMessages
// and PerPE[].WireOut are deterministic in sequential mode only: in
// parallel mode they depend on when a PE happened to run out of work and
// flush.
//
// A worker's queues are recycled, not reallocated every round: take hands
// the inbox the buffer the previous take returned, process swaps the local
// queue with a spare, and a phase's reductions map is emptied rather than
// dropped. A queue buffer is appended to again only after the loop that
// read it has ended — the worker's own process call, which both take and
// the swap follow — and the inbox receives its buffer under inbox.mu, so a
// sender never appends to one still being read.
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

// Locality indexes PhaseStats.ByLocality.
type Locality uint8

// Locality classes of a chare-level send.
const (
	LocalPE Locality = iota // the destination chare lives on the sending PE
	Remote                  // it lives on another PE
)

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
	// ByLocality splits Messages into local and remote sends.
	ByLocality [2]int64
	// Reductions holds the merged contributions of the phase.
	Reductions map[string]int64
	// PerPE is indexed by PE; nil unless Config.PEs > 0 (always set).
	PerPE []PETraffic
}

// PETraffic is one PE's traffic during a phase.
type PETraffic struct {
	MsgsIn, MsgsOut int64
	WireOut         int64 // every wire message leaves the PE
	BytesOut        int64
	Delivered       int64 // chare-level messages delivered (a batch of n counts n)
}

// Runtime executes chare arrays over PEs.
type Runtime struct {
	cfg     Config
	meshW   int32 // width of the virtual PE mesh Route2D relays over: ⌈√PEs⌉
	arrays  []*array
	workers []worker

	// produced counts envelopes put into inboxes and consumed those taken
	// out and processed; only the parallel scheduler's detector reads them.
	produced, consumed atomic.Int64
}

type array struct {
	chares    []Chare
	placement []PE
}

type envelope struct {
	to  ChareRef
	msg Message
	n   int32 // chare-level messages msg stands for: 1, or SendN's n
	// relay marks an envelope parked at a 2D-routing intermediate: it must
	// be forwarded toward its destination, not delivered to a chare.
	relay bool
}

// inbox is the one part of a worker that other PEs and the driver touch.
type inbox struct {
	mu sync.Mutex
	q  []envelope
}

func (b *inbox) put(batch ...envelope) {
	b.mu.Lock()
	b.q = append(b.q, batch...)
	b.mu.Unlock()
}

// ledger is what one PE did during a phase. Only the PE's own worker
// writes it (the driver writes seeded, between phases), so neither
// scheduler needs a lock or an atomic to keep it.
type ledger struct {
	PETraffic        // MsgsIn stays zero until finishPhase derives it
	localOut   int64 // chare-level sends to a chare on this PE
	seeded     int64 // driver-enqueued deliveries: Recv calls that are not traffic
	reductions map[string]int64
}

// worker is one PE's share of the messaging layer: aggregation (Section
// IV-C), traffic accounting and the TRAM relay (footnote 1) live in its
// methods and nowhere else. A scheduler only decides when to call
// take, process and flush.
type worker struct {
	rt    *Runtime
	pe    PE
	ctx   Ctx
	inbox inbox
	// local queues sends to chares on this PE; they never leave the worker.
	// spare is the local queue that process read last, and taken the inbox
	// buffer that take returned last: the next ones to be reused.
	local, spare, taken []envelope
	// agg holds one aggregation buffer per next-hop PE, allocated on the
	// first buffered send; dirty lists the hops buffered since the last
	// flush (a buffer that emptied and refilled is listed twice, which
	// flush tolerates).
	agg   []aggBuffer
	dirty []PE
	ledger
}

// aggBuffer is one next hop's envelopes not yet transmitted and n, the
// chare-level messages buffered since its last wire message: a batch that
// fills the buffer moves whole, but its messages past the last full buffer
// stay in n for the next wire message, as if buffered one by one.
type aggBuffer struct {
	envs []envelope
	n    int
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
		cfg:     cfg,
		meshW:   1,
		workers: make([]worker, cfg.PEs),
	}
	for rt.meshW*rt.meshW < int32(cfg.PEs) {
		rt.meshW++
	}
	for pe := range rt.workers {
		w := &rt.workers[pe]
		w.rt, w.pe, w.ctx = rt, PE(pe), Ctx{w}
	}
	return rt
}

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
	for i := range rt.arrays[arrayID].chares {
		rt.Send(ChareRef{Array: arrayID, Index: int32(i)}, msg)
	}
}

// Send enqueues a driver-side point-to-point message (rarely needed; chare
// sends go through Ctx.Send). It is delivered on the destination's PE and
// is not counted as traffic.
func (rt *Runtime) Send(to ChareRef, msg Message) {
	w := &rt.workers[rt.PlacementOf(to)]
	w.seeded++
	w.inbox.put(envelope{to: to, msg: msg, n: 1})
}

// Ctx is passed to chare Recv methods.
type Ctx struct {
	w *worker // the PE executing the current chare
}

// Send delivers msg to another chare asynchronously.
func (c *Ctx) Send(to ChareRef, msg Message) { c.SendN(to, msg, 1) }

// SendN delivers msg to another chare asynchronously as one envelope that
// stands for n chare-level messages of msg's size each — a batch the
// receiver handles in one Recv. Every PhaseStats counter charges it as n
// calls of Send.
func (c *Ctx) SendN(to ChareRef, msg Message, n int) {
	w := c.w
	final := w.rt.PlacementOf(to)
	w.MsgsOut += int64(n)
	w.BytesOut += int64(n) * msgBytes(msg)
	if final == w.pe {
		w.localOut += int64(n)
	}
	w.forward(envelope{to: to, msg: msg, n: int32(n)}, final)
}

// Contribute adds val into the named phase reduction (sum).
func (c *Ctx) Contribute(key string, val int64) {
	if c.w.reductions == nil {
		c.w.reductions = make(map[string]int64)
	}
	c.w.reductions[key] += val
}

func msgBytes(m Message) int64 {
	if s, ok := m.(Sized); ok {
		return int64(s.WireSize())
	}
	return DefaultMessageBytes
}

// intermediate returns the 2D-routing relay PE for src→dst (row of src,
// column of dst), or dst when no useful relay exists.
func (rt *Runtime) intermediate(src, dst PE) PE {
	inter := (src/rt.meshW)*rt.meshW + dst%rt.meshW
	if inter >= int32(rt.cfg.PEs) || inter == src || inter == dst {
		return dst
	}
	return inter
}

// forward moves env one hop from this PE toward final, the PE hosting
// env.to: onto the local queue, or into the aggregation buffer of the next
// hop (the 2D-routing relay when enabled), which is transmitted, and
// counted as one wire message per AggBufferSize messages, once full.
func (w *worker) forward(env envelope, final PE) {
	if final == w.pe {
		w.local = append(w.local, env)
		return
	}
	cfg := &w.rt.cfg
	if cfg.AggBufferSize == 0 {
		w.WireOut += int64(env.n)
		w.transmit(final, env)
		return
	}
	next := final
	if cfg.Route2D {
		next = w.rt.intermediate(w.pe, final)
	}
	env.relay = next != final
	if w.agg == nil {
		w.agg = make([]aggBuffer, cfg.PEs)
	}
	b := &w.agg[next]
	if b.n == 0 {
		w.dirty = append(w.dirty, next)
	}
	b.envs = append(b.envs, env)
	b.n += int(env.n)
	if b.n >= cfg.AggBufferSize {
		w.WireOut += int64(b.n / cfg.AggBufferSize)
		b.n %= cfg.AggBufferSize
		w.transmit(next, b.envs...)
		b.envs = b.envs[:0]
	}
}

// transmit moves envelopes to another PE's inbox: the only place they
// cross PEs (local delivery never reaches it, so never hits the wire).
func (w *worker) transmit(next PE, envs ...envelope) {
	w.rt.produced.Add(int64(len(envs)))
	w.rt.workers[next].inbox.put(envs...)
}

// flush sends every non-empty aggregation buffer — the rule for a PE that
// has run out of work, the same one PMs follow after producing all visit
// messages — counting one wire message for each partly filled one, and
// reports whether it moved any envelope.
func (w *worker) flush() bool {
	sent := false
	for _, next := range w.dirty {
		b := &w.agg[next]
		if b.n > 0 {
			w.WireOut++
			b.n = 0
		}
		if len(b.envs) > 0 {
			w.transmit(next, b.envs...)
			b.envs = b.envs[:0]
			sent = true
		}
	}
	w.dirty = w.dirty[:0]
	return sent
}

// take empties the inbox, leaving it the buffer of the previous take.
func (w *worker) take() []envelope {
	w.inbox.mu.Lock()
	q := w.inbox.q
	w.inbox.q = w.taken[:0]
	w.inbox.mu.Unlock()
	w.taken = q
	return q
}

// process delivers q, and then whatever the chares sent to their own PE
// meanwhile, until the local queue is empty.
func (w *worker) process(q []envelope) {
	for len(q) > 0 {
		for _, env := range q {
			if env.relay {
				w.forward(env, w.rt.PlacementOf(env.to))
				continue
			}
			w.Delivered += int64(env.n)
			w.rt.Chare(env.to).Recv(&w.ctx, env.msg)
		}
		q, w.local, w.spare = w.local, w.spare[:0], w.local
	}
}

// Drain processes all pending messages (including those produced while
// draining) until the phase completes, then returns the phase statistics
// and resets them. Both schedulers flush a PE's aggregation buffers
// whenever it runs out of work.
func (rt *Runtime) Drain() PhaseStats {
	if rt.cfg.Parallel {
		rt.runParallel()
	} else {
		rt.runSequential()
	}
	return rt.finishPhase()
}

// confirmations is how many times a detector must see the phase complete:
// completion detection confirms produced==consumed once more after first
// seeing it; quiescence detection additionally re-confirms global idleness
// of the whole application.
func (rt *Runtime) confirmations() int {
	if rt.cfg.SyncMode == QuiescenceDetection {
		return 4
	}
	return 2
}

// runSequential visits PEs round-robin until none did any work.
func (rt *Runtime) runSequential() {
	for work := true; work; {
		work = false
		for pe := range rt.workers {
			w := &rt.workers[pe]
			if q := w.take(); len(q) > 0 {
				w.process(q)
				work = true
			}
			if w.flush() {
				work = true
			}
		}
	}
}

// runParallel runs one goroutine per PE until the completion detector
// fires — all workers idle with every produced envelope consumed, seen on
// consecutive polls (Dijkstra-style double check).
func (rt *Runtime) runParallel() {
	var idle atomic.Int64
	var done atomic.Bool
	var seeded int64
	for pe := range rt.workers {
		seeded += rt.workers[pe].seeded
	}
	rt.produced.Store(seeded)
	rt.consumed.Store(0)

	var wg sync.WaitGroup
	for pe := range rt.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			resting := false
			for !done.Load() {
				q := w.take()
				if len(q) == 0 {
					if w.flush() {
						continue
					}
					if !resting {
						resting = true
						idle.Add(1)
					}
					time.Sleep(20 * time.Microsecond)
					continue
				}
				if resting {
					resting = false
					idle.Add(-1)
				}
				w.process(q)
				rt.consumed.Add(int64(len(q)))
			}
		}(&rt.workers[pe])
	}

	for confirmed := 0; confirmed < rt.confirmations(); {
		time.Sleep(50 * time.Microsecond)
		if idle.Load() == int64(len(rt.workers)) && rt.produced.Load() == rt.consumed.Load() {
			confirmed++
		} else {
			confirmed = 0
		}
	}
	done.Store(true)
	wg.Wait()
}

// finishPhase sums the workers' ledgers into the phase statistics and
// clears them for the next phase (a reductions map is emptied, not dropped).
func (rt *Runtime) finishPhase() PhaseStats {
	out := PhaseStats{
		Reductions: make(map[string]int64),
		PerPE:      make([]PETraffic, len(rt.workers)),
	}
	for pe := range rt.workers {
		w := &rt.workers[pe]
		// Every Recv on this PE was either seeded by the driver or a
		// chare-level message arriving, so the receiver can count its own
		// MsgsIn and no PE writes another's row.
		w.MsgsIn = w.Delivered - w.seeded
		out.PerPE[pe] = w.PETraffic
		out.Messages += w.MsgsOut
		out.Bytes += w.BytesOut
		out.WireMessages += w.WireOut
		out.ByLocality[LocalPE] += w.localOut
		out.ByLocality[Remote] += w.MsgsOut - w.localOut
		for key, val := range w.reductions {
			out.Reductions[key] += val
		}
		clear(w.reductions)
		w.ledger = ledger{reductions: w.reductions}
	}
	return out
}
