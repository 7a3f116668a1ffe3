package charm

import (
	"testing"
)

// all2allSender sends `count` messages to every receiver chare on receipt
// of a start message.
type all2allSender struct {
	recvArr int32
	targets int32
	count   int
}

func (s *all2allSender) Recv(ctx *Ctx, msg Message) {
	for t := int32(0); t < s.targets; t++ {
		for i := 0; i < s.count; i++ {
			ctx.Send(ChareRef{Array: s.recvArr, Index: t}, intMsg{val: 1})
		}
	}
}

// runAll2All performs an all-to-all on P PEs with aggregation buffer B,
// with or without 2D routing, and returns the phase stats and the total
// received count.
func runAll2All(t *testing.T, parallel bool, pes, buf int, route2D bool, perPair int) (PhaseStats, int64) {
	t.Helper()
	rt := New(Config{PEs: pes, Parallel: parallel, AggBufferSize: buf, Route2D: route2D})
	var recvArr int32
	receivers := make([]*counterChare, pes)
	recvArr = rt.NewArray(pes, func(i int32) Chare {
		receivers[i] = &counterChare{}
		return receivers[i]
	}, func(i int32) PE { return i })
	send := rt.NewArray(pes, func(i int32) Chare {
		return &all2allSender{recvArr: recvArr, targets: int32(pes), count: perPair}
	}, func(i int32) PE { return i })
	rt.Broadcast(send, intMsg{})
	st := rt.Drain()
	var total int64
	for _, r := range receivers {
		total += r.received.Load()
	}
	return st, total
}

func TestRoute2DDeliversEverything(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		pes := 9 // 3x3 mesh
		st, total := runAll2All(t, parallel, pes, 4, true, 3)
		want := int64(pes * pes * 3)
		if total != want {
			t.Fatalf("parallel=%v: delivered %d, want %d", parallel, total, want)
		}
		if st.Messages != want {
			t.Fatalf("parallel=%v: chare messages %d, want %d", parallel, st.Messages, want)
		}
	}
}

func TestRoute2DReducesWireMessagesWhenSparse(t *testing.T) {
	// Sparse all-to-all (1 message per pair, buffer 8): direct aggregation
	// cannot fill buffers (1 msg per destination buffer), while 2D routing
	// concentrates sqrt(P) pairs per buffer.
	pes := 16
	direct, _ := runAll2All(t, false, pes, 8, false, 1)
	routed, _ := runAll2All(t, false, pes, 8, true, 1)
	if routed.WireMessages >= direct.WireMessages {
		t.Fatalf("2D routing did not reduce wire messages: %d vs %d",
			routed.WireMessages, direct.WireMessages)
	}
}

func TestRoute2DNeutralWhenDense(t *testing.T) {
	// Dense traffic fills direct buffers anyway; 2D routing must not
	// catastrophically regress (it adds at most the extra hop).
	pes := 9
	direct, _ := runAll2All(t, false, pes, 4, false, 12)
	routed, _ := runAll2All(t, false, pes, 4, true, 12)
	if routed.WireMessages > direct.WireMessages*3 {
		t.Fatalf("2D routing exploded wire messages: %d vs %d",
			routed.WireMessages, direct.WireMessages)
	}
}

func TestRoute2DReductionsIntact(t *testing.T) {
	rt := New(Config{PEs: 9, AggBufferSize: 4, Route2D: true})
	id := rt.NewArray(27, func(i int32) Chare {
		return chareFunc(func(ctx *Ctx, msg Message) {
			ctx.Contribute("n", 1)
		})
	}, nil)
	rt.Broadcast(id, intMsg{})
	st := rt.Drain()
	if st.Reductions["n"] != 27 {
		t.Fatalf("reductions with routing = %d", st.Reductions["n"])
	}
}

func TestIntermediateGeometry(t *testing.T) {
	rt := New(Config{PEs: 16}) // 4x4 mesh
	cases := []struct{ src, dst, want PE }{
		{0, 5, 1},   // row 0, col 1
		{0, 15, 3},  // row 0, col 3
		{5, 0, 4},   // row 1, col 0
		{0, 3, 3},   // same row: direct
		{0, 12, 12}, // same column: intermediate would be src(0)? (0/4)*4+12%4=0 -> src -> direct
		{7, 7, 7},   // self
	}
	for _, c := range cases {
		if got := rt.intermediate(c.src, c.dst); got != c.want {
			t.Fatalf("intermediate(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestIntermediateRaggedMesh(t *testing.T) {
	// 10 PEs: mesh width 4, rows 0..2 with the last row ragged. Relays
	// beyond PE 9 must fall back to direct.
	rt := New(Config{PEs: 10})
	for src := PE(0); src < 10; src++ {
		for dst := PE(0); dst < 10; dst++ {
			inter := rt.intermediate(src, dst)
			if inter < 0 || inter >= 10 {
				t.Fatalf("intermediate(%d,%d) = %d out of range", src, dst, inter)
			}
		}
	}
}

func TestRoute2DParallelSequentialEquivalence(t *testing.T) {
	seqStats, seqTotal := runAll2All(t, false, 9, 4, true, 2)
	parStats, parTotal := runAll2All(t, true, 9, 4, true, 2)
	if seqTotal != parTotal {
		t.Fatalf("delivery differs: %d vs %d", seqTotal, parTotal)
	}
	if seqStats.Messages != parStats.Messages {
		t.Fatalf("chare messages differ: %d vs %d", seqStats.Messages, parStats.Messages)
	}
	requireScheduleIndependentEqual(t, seqStats, parStats)
	// Wire counts under routing depend on flush timing at intermediates
	// (parallel workers may flush before a late relay arrives), so equality
	// holds only approximately — unlike direct aggregation, where both
	// modes count identically.
	lo, hi := seqStats.WireMessages*8/10, seqStats.WireMessages*12/10
	if parStats.WireMessages < lo || parStats.WireMessages > hi {
		t.Fatalf("wire messages diverge beyond flush jitter: %d vs %d",
			parStats.WireMessages, seqStats.WireMessages)
	}
}
