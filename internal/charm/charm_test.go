package charm

import (
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// counterChare counts received ints and optionally forwards them with a
// decremented TTL to a next chare.
type counterChare struct {
	id       int32
	received atomic.Int64
	sum      atomic.Int64
	next     *ChareRef
}

type intMsg struct {
	val int64
	ttl int
}

func (c *counterChare) Recv(ctx *Ctx, msg Message) {
	c.received.Add(1)
	m, ok := msg.(intMsg)
	if !ok {
		return
	}
	c.sum.Add(m.val)
	if c.next != nil && m.ttl > 0 {
		ctx.Send(*c.next, intMsg{val: m.val, ttl: m.ttl - 1})
	}
}

func newRing(rt *Runtime, n int) int32 {
	chares := make([]*counterChare, n)
	id := rt.NewArray(n, func(i int32) Chare {
		chares[i] = &counterChare{id: i}
		return chares[i]
	}, nil)
	for i := 0; i < n; i++ {
		next := ChareRef{Array: id, Index: int32((i + 1) % n)}
		chares[i].next = &next
	}
	return id
}

func configs(parallel bool) []Config {
	return []Config{
		{PEs: 1, Parallel: parallel},
		{PEs: 4, Parallel: parallel},
		{PEs: 4, Parallel: parallel, AggBufferSize: 8},
		{PEs: 8, Parallel: parallel, AggBufferSize: 4},
	}
}

func TestRingForwarding(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		for _, cfg := range configs(parallel) {
			rt := New(cfg)
			id := newRing(rt, 10)
			// One token with TTL 25 visits 26 chares.
			rt.Send(ChareRef{Array: id, Index: 0}, intMsg{val: 1, ttl: 25})
			st := rt.Drain()
			var total int64
			for i := 0; i < 10; i++ {
				total += rt.Chare(ChareRef{Array: id, Index: int32(i)}).(*counterChare).received.Load()
			}
			if total != 26 {
				t.Fatalf("parallel=%v cfg=%+v: %d deliveries, want 26", parallel, cfg, total)
			}
			if st.Messages != 25 {
				// The driver Send is not a chare-level message; the 25
				// forwards are.
				t.Fatalf("parallel=%v: stats.Messages = %d, want 25", parallel, st.Messages)
			}
		}
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		rt := New(Config{PEs: 4, Parallel: parallel})
		var chares []*counterChare
		id := rt.NewArray(33, func(i int32) Chare {
			c := &counterChare{id: i}
			chares = append(chares, c)
			return c
		}, nil)
		rt.Broadcast(id, intMsg{val: 7})
		rt.Drain()
		for i, c := range chares {
			if c.received.Load() != 1 || c.sum.Load() != 7 {
				t.Fatalf("parallel=%v: chare %d received %d (sum %d)", parallel, i, c.received.Load(), c.sum.Load())
			}
		}
	}
}

// scatterChare sends `fanout` messages to random-ish targets on receipt.
type scatterChare struct {
	id      int32
	fanout  int
	targets int32
	array   int32
}

func (s *scatterChare) Recv(ctx *Ctx, msg Message) {
	m := msg.(intMsg)
	if m.ttl <= 0 {
		ctx.Contribute("leaves", 1)
		return
	}
	for i := 0; i < s.fanout; i++ {
		tgt := (s.id*31 + int32(i)*17 + int32(m.ttl)) % s.targets
		ctx.Send(ChareRef{Array: s.array, Index: tgt}, intMsg{val: 1, ttl: m.ttl - 1})
	}
}

func TestMessageStorageConservation(t *testing.T) {
	// A fanout tree of depth d produces a known number of messages and
	// leaves; both modes and all aggregation settings must agree.
	for _, parallel := range []bool{false, true} {
		for _, agg := range []int{0, 4, 64} {
			rt := New(Config{PEs: 6, Parallel: parallel, AggBufferSize: agg})
			n := 40
			var arr int32
			arr = rt.NewArray(n, func(i int32) Chare {
				return &scatterChare{id: i, fanout: 3, targets: int32(n), array: arr}
			}, nil)
			rt.Send(ChareRef{Array: arr, Index: 0}, intMsg{ttl: 4})
			st := rt.Drain()
			// Depth 4 fanout 3: injected 1 (driver), then 3 + 9 + 27 + 81
			// chare sends = 120 chare-level messages; 81 leaves contribute.
			if st.Messages != 120 {
				t.Fatalf("parallel=%v agg=%d: messages = %d, want 120", parallel, agg, st.Messages)
			}
			if st.Reductions["leaves"] != 81 {
				t.Fatalf("parallel=%v agg=%d: leaves = %d, want 81", parallel, agg, st.Reductions["leaves"])
			}
			// Aggregation can only reduce wire messages.
			if st.WireMessages > st.Messages {
				t.Fatalf("wire %d > chare %d", st.WireMessages, st.Messages)
			}
		}
	}
}

func TestAggregationReducesWireMessages(t *testing.T) {
	run := func(agg int) PhaseStats {
		rt := New(Config{PEs: 2, AggBufferSize: agg})
		var arr int32
		recv := rt.NewArray(2, func(i int32) Chare { return &counterChare{} },
			func(i int32) PE { return PE(i) })
		arr = recv
		sender := rt.NewArray(1, func(i int32) Chare {
			return chareFunc(func(ctx *Ctx, msg Message) {
				for k := 0; k < 100; k++ {
					ctx.Send(ChareRef{Array: arr, Index: 1}, intMsg{val: 1})
				}
			})
		}, func(i int32) PE { return 0 })
		rt.Send(ChareRef{Array: sender, Index: 0}, intMsg{})
		return rt.Drain()
	}
	noAgg := run(0)
	withAgg := run(25)
	if noAgg.WireMessages != 100 {
		t.Fatalf("no aggregation wire = %d, want 100", noAgg.WireMessages)
	}
	if withAgg.WireMessages != 4 {
		t.Fatalf("agg=25 wire = %d, want 4", withAgg.WireMessages)
	}
	if noAgg.Messages != withAgg.Messages {
		t.Fatal("aggregation changed chare-level message count")
	}
}

// chareFunc adapts a function to the Chare interface.
type chareFunc func(ctx *Ctx, msg Message)

func (f chareFunc) Recv(ctx *Ctx, msg Message) { f(ctx, msg) }

func TestLocalityCounting(t *testing.T) {
	// Chare on PE0 sends one message to a chare on each of 4 PEs.
	rt := New(Config{PEs: 4})
	var recvArr int32
	recvArr = rt.NewArray(4, func(i int32) Chare { return &counterChare{} },
		func(i int32) PE { return PE(i) })
	sender := rt.NewArray(1, func(i int32) Chare {
		return chareFunc(func(ctx *Ctx, msg Message) {
			for pe := int32(0); pe < 4; pe++ {
				ctx.Send(ChareRef{Array: recvArr, Index: pe}, intMsg{})
			}
		})
	}, func(i int32) PE { return 0 })
	rt.Send(ChareRef{Array: sender, Index: 0}, intMsg{})
	st := rt.Drain()
	if st.ByLocality[LocalPE] != 1 || st.ByLocality[Remote] != 3 {
		t.Fatalf("locality counts = %v", st.ByLocality)
	}
	if st.WireMessages != 3 || st.PerPE[0].WireOut != 3 {
		t.Fatalf("wire = %d (PE0 %d), want 3: local delivery must not hit the wire",
			st.WireMessages, st.PerPE[0].WireOut)
	}
}

func TestReductions(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		rt := New(Config{PEs: 3, Parallel: parallel})
		id := rt.NewArray(30, func(i int32) Chare {
			return chareFunc(func(ctx *Ctx, msg Message) {
				ctx.Contribute("count", 1)
				ctx.Contribute("sum", int64(i))
			})
		}, nil)
		rt.Broadcast(id, intMsg{})
		st := rt.Drain()
		if st.Reductions["count"] != 30 {
			t.Fatalf("parallel=%v: count = %d", parallel, st.Reductions["count"])
		}
		if st.Reductions["sum"] != 29*30/2 {
			t.Fatalf("parallel=%v: sum = %d", parallel, st.Reductions["sum"])
		}
	}
}

func TestPhaseStatsReset(t *testing.T) {
	rt := New(Config{PEs: 2})
	id := newRing(rt, 4)
	rt.Send(ChareRef{Array: id, Index: 0}, intMsg{ttl: 10})
	first := rt.Drain()
	if first.Messages == 0 {
		t.Fatal("first phase recorded nothing")
	}
	second := rt.Drain()
	if second.Messages != 0 || len(second.Reductions) != 0 {
		t.Fatalf("stats leaked across phases: %+v", second)
	}
}

// A parallel drain ends only after the last message of a chain; the
// runtime has no synchronization mode, what each costs is
// internal/machine's SyncCost (TestSyncCostOrdering there).
func TestSyncModeRounds(t *testing.T) {
	rt := New(Config{PEs: 2, Parallel: true})
	id := newRing(rt, 2)
	rt.Send(ChareRef{Array: id, Index: 0}, intMsg{ttl: 3})
	if st := rt.Drain(); st.Messages != 3 {
		t.Fatalf("%d messages, want 3", st.Messages)
	}
}

func TestSequentialParallelEquivalence(t *testing.T) {
	run := func(parallel bool) (PhaseStats, int64) {
		rt := New(Config{PEs: 5, Parallel: parallel, AggBufferSize: 7})
		n := 25
		var arr int32
		arr = rt.NewArray(n, func(i int32) Chare {
			return &scatterChare{id: i, fanout: 2, targets: int32(n), array: arr}
		}, nil)
		rt.Send(ChareRef{Array: arr, Index: 3}, intMsg{ttl: 6})
		st := rt.Drain()
		return st, st.Reductions["leaves"]
	}
	seq, seqLeaves := run(false)
	par, parLeaves := run(true)
	if seq.Messages != par.Messages {
		t.Fatalf("message counts differ: %d vs %d", seq.Messages, par.Messages)
	}
	if seqLeaves != parLeaves {
		t.Fatalf("reduction differs: %d vs %d", seqLeaves, parLeaves)
	}
	if seq.ByLocality != par.ByLocality {
		t.Fatalf("locality histograms differ: %v vs %v", seq.ByLocality, par.ByLocality)
	}
	if seq.Bytes != par.Bytes {
		t.Fatalf("bytes differ: %d vs %d", seq.Bytes, par.Bytes)
	}
	requireScheduleIndependentEqual(t, seq, par)
}

// requireScheduleIndependentEqual compares every PhaseStats field that
// counts chare-level traffic. The wire fields (WireMessages,
// PerPE[].WireOut) are left out: in parallel mode they depend on when a PE
// happened to go idle.
func requireScheduleIndependentEqual(t *testing.T, seq, par PhaseStats) {
	t.Helper()
	if seq.Messages != par.Messages || seq.Bytes != par.Bytes || seq.ByLocality != par.ByLocality {
		t.Fatalf("totals differ: %d msgs %d bytes %v vs %d msgs %d bytes %v",
			seq.Messages, seq.Bytes, seq.ByLocality, par.Messages, par.Bytes, par.ByLocality)
	}
	if !reflect.DeepEqual(seq.Reductions, par.Reductions) {
		t.Fatalf("reductions differ: %v vs %v", seq.Reductions, par.Reductions)
	}
	if len(seq.PerPE) != len(par.PerPE) {
		t.Fatalf("PerPE lengths differ: %d vs %d", len(seq.PerPE), len(par.PerPE))
	}
	for pe := range seq.PerPE {
		s, p := seq.PerPE[pe], par.PerPE[pe]
		s.WireOut, p.WireOut = 0, 0
		if s != p {
			t.Fatalf("PE %d traffic differs: %+v vs %+v", pe, s, p)
		}
	}
}

func TestPerPETrafficConsistency(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int32(seedRaw%97) + 1
		rt := New(Config{PEs: 4, AggBufferSize: 3})
		n := 16
		var arr int32
		arr = rt.NewArray(n, func(i int32) Chare {
			return &scatterChare{id: i + seed, fanout: 2, targets: int32(n), array: arr}
		}, nil)
		rt.Send(ChareRef{Array: arr, Index: seed % int32(n)}, intMsg{ttl: 4})
		st := rt.Drain()
		var outSum, inSum int64
		for _, pe := range st.PerPE {
			outSum += pe.MsgsOut
			inSum += pe.MsgsIn
		}
		return outSum == st.Messages && inSum == st.Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSizedMessages(t *testing.T) {
	rt := New(Config{PEs: 2})
	recv := rt.NewArray(1, func(i int32) Chare { return &counterChare{} },
		func(i int32) PE { return 1 })
	send := rt.NewArray(1, func(i int32) Chare {
		return chareFunc(func(ctx *Ctx, msg Message) {
			ctx.Send(ChareRef{Array: recv, Index: 0}, sizedMsg{})
			ctx.Send(ChareRef{Array: recv, Index: 0}, intMsg{})
		})
	}, func(i int32) PE { return 0 })
	rt.Send(ChareRef{Array: send, Index: 0}, intMsg{})
	st := rt.Drain()
	if st.Bytes != 1000+DefaultMessageBytes {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 1000+DefaultMessageBytes)
	}
}

type sizedMsg struct{}

func (sizedMsg) WireSize() int { return 1000 }

func TestPlacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad placement should panic")
		}
	}()
	rt := New(Config{PEs: 2})
	rt.NewArray(1, func(i int32) Chare { return &counterChare{} },
		func(i int32) PE { return 99 })
}

func BenchmarkSequentialMessaging(b *testing.B) {
	rt := New(Config{PEs: 8, AggBufferSize: 32})
	n := 64
	var arr int32
	arr = rt.NewArray(n, func(i int32) Chare {
		return &scatterChare{id: i, fanout: 2, targets: int32(n), array: arr}
	}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Send(ChareRef{Array: arr, Index: 0}, intMsg{ttl: 8})
		rt.Drain()
	}
}

func BenchmarkParallelMessaging(b *testing.B) {
	rt := New(Config{PEs: 4, Parallel: true, AggBufferSize: 32})
	n := 64
	var arr int32
	arr = rt.NewArray(n, func(i int32) Chare {
		return &scatterChare{id: i, fanout: 2, targets: int32(n), array: arr}
	}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Send(ChareRef{Array: arr, Index: 0}, intMsg{ttl: 8})
		rt.Drain()
	}
}

// echoChare logs every message. While hops remain it sends the message on
// to itself (its own PE's local queue) and a copy to peer (another PE's
// inbox, or the same local queue on one PE); a copy is acknowledged to its
// sender, so the sender's inbox fills while it works through its queues.
type echoChare struct {
	self, peer ChareRef
	log, acks  []echoMsg
}

type echoMsg struct {
	phase, seq, hops int
	kind             byte // 0 forwarded, 'c' copy, 'a' acknowledgement
}

func (c *echoChare) Recv(ctx *Ctx, msg Message) {
	m := msg.(echoMsg)
	switch m.kind {
	case 'a':
		c.acks = append(c.acks, m)
	case 'c':
		c.log = append(c.log, m)
		ctx.Send(c.peer, echoMsg{m.phase, m.seq, m.hops, 'a'})
	default:
		c.log = append(c.log, m)
		if m.hops > 0 {
			ctx.Send(c.self, echoMsg{m.phase, m.seq, m.hops - 1, 0})
			ctx.Send(c.peer, echoMsg{m.phase, m.seq, m.hops, 'c'})
		}
	}
}

// The workers' queue buffers are recycled from one round and one phase to
// the next. Every phase here sends differently sized, differently labelled
// traffic through the local queue (five generations per phase, so both
// local buffers are reused within one) and through both inboxes; a buffer
// handed back while it was still being read, or read beyond its new
// length, would deliver a message of the wrong phase, twice, or out of
// order.
func TestQueueBuffersRecycledAcrossPhases(t *testing.T) {
	const hops = 4
	for _, cfg := range []Config{
		{PEs: 1}, {PEs: 2}, {PEs: 2, AggBufferSize: 4},
		{PEs: 2, Parallel: true}, {PEs: 2, AggBufferSize: 4, Parallel: true},
	} {
		rt := New(cfg)
		var chares [2]*echoChare
		arr := rt.NewArray(2, func(i int32) Chare {
			chares[i] = &echoChare{}
			return chares[i]
		}, nil)
		src, sink := chares[0], chares[1]
		src.self, src.peer = ChareRef{arr, 0}, ChareRef{arr, 1}
		sink.self, sink.peer = src.peer, src.self
		for phase, n := range []int{2000, 7, 1200} {
			src.log, src.acks, sink.log = src.log[:0], src.acks[:0], sink.log[:0]
			for seq := 0; seq < n; seq++ {
				rt.Send(src.self, echoMsg{phase, seq, hops, 0})
			}
			stats := rt.Drain()
			var wantLog, wantCopies, wantAcks []echoMsg
			for h := hops; h >= 0; h-- {
				for seq := 0; seq < n; seq++ {
					wantLog = append(wantLog, echoMsg{phase, seq, h, 0})
					if h > 0 {
						wantCopies = append(wantCopies, echoMsg{phase, seq, h, 'c'})
						wantAcks = append(wantAcks, echoMsg{phase, seq, h, 'a'})
					}
				}
			}
			for _, c := range []struct {
				what      string
				got, want []echoMsg
			}{
				{"sender's own queue", src.log, wantLog},
				{"peer's copies", sink.log, wantCopies},
				{"sender's acknowledgements", src.acks, wantAcks},
			} {
				if len(c.got) != len(c.want) {
					t.Fatalf("%+v phase %d: %s: %d deliveries, want %d", cfg, phase, c.what, len(c.got), len(c.want))
				}
				for i := range c.want {
					if c.got[i] != c.want[i] {
						t.Fatalf("%+v phase %d: %s: delivery %d is %v, want %v", cfg, phase, c.what, i, c.got[i], c.want[i])
					}
				}
			}
			if want := int64(3 * hops * n); stats.Messages != want {
				t.Fatalf("%+v phase %d: %d messages, want %d", cfg, phase, stats.Messages, want)
			}
		}
	}
}
