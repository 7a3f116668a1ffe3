package charm

import (
	"fmt"
	"testing"
)

// mix is SplitMix64's finalizer: the keyed randomness of the cascades.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// cascadeMsg carries its own randomness: what its receiver sends depends
// on key and depth alone, never on when or where it arrives, so a phase's
// traffic is the same under either scheduler.
type cascadeMsg struct {
	key   uint64
	depth int
}

func (m cascadeMsg) WireSize() int { return 8 + int(m.key%57) }

// cascadeChare fans each message out to zero to three keyed random
// elements of its array, one in four of them as a SendN batch.
type cascadeChare struct {
	array, n int32
}

func (c *cascadeChare) Recv(ctx *Ctx, msg Message) {
	m := msg.(cascadeMsg)
	ctx.Contribute("recv", 1)
	if m.depth == 0 {
		return
	}
	h := mix(m.key)
	for i := uint64(0); i < h%4; i++ {
		k := mix(h + i + 1)
		to := ChareRef{Array: c.array, Index: int32(k % uint64(c.n))}
		next := cascadeMsg{key: k, depth: m.depth - 1}
		if k>>32%4 == 0 {
			ctx.SendN(to, next, 1+int(k>>40%3))
		} else {
			ctx.Send(to, next)
		}
	}
}

func newCascade(cfg Config) (*Runtime, int32) {
	rt := New(cfg)
	n := int32(3*cfg.PEs + 1)
	var arr int32
	arr = rt.NewArray(int(n), func(int32) Chare { return &cascadeChare{array: arr, n: n} },
		func(i int32) PE { return PE(mix(uint64(i)) % uint64(cfg.PEs)) })
	return rt, arr
}

// requireDrained fails unless every inbox, local queue and aggregation
// buffer is empty and no envelope is left pending.
func requireDrained(t *testing.T, rt *Runtime) {
	t.Helper()
	if p := rt.pending.Load(); p != 0 {
		t.Fatalf("%d envelopes still pending", p)
	}
	for pe := range rt.workers {
		w := &rt.workers[pe]
		if len(w.inbox.q) != 0 || len(w.local) != 0 || len(w.dirty) != 0 {
			t.Fatalf("PE %d: %d in inbox, %d queued locally, %d dirty hops", pe, len(w.inbox.q), len(w.local), len(w.dirty))
		}
		for next, b := range w.agg {
			if len(b.envs) != 0 || b.n != 0 {
				t.Fatalf("PE %d: %d envelopes (%d messages) buffered for PE %d", pe, len(b.envs), b.n, next)
			}
		}
	}
}

// The parallel scheduler must end a phase exactly when its work is done:
// not before (a message left in an inbox or a buffer, or delivered in the
// next phase) and not never. Keyed random cascades run in lockstep on a
// sequential and a parallel runtime; after every Drain both must be empty
// and agree on every chare-level counter. Every tenth phase seeds nothing.
func TestParallelDrainExact(t *testing.T) {
	const phases = 100
	for _, pes := range []int{1, 2, 5, 16} {
		for _, agg := range []int{0, 3, 64} {
			for _, route2D := range []bool{false, true} {
				if route2D && agg == 0 {
					continue // 2D routing relays through aggregation buffers
				}
				cfg := Config{PEs: pes, AggBufferSize: agg, Route2D: route2D}
				t.Run(fmt.Sprintf("pes=%d/agg=%d/route2d=%v", pes, agg, route2D), func(t *testing.T) {
					seq, arr := newCascade(cfg)
					cfg.Parallel = true
					par, _ := newCascade(cfg)
					for phase := uint64(0); phase < phases; phase++ {
						h := mix(phase ^ uint64(pes)<<40 ^ uint64(agg)<<48)
						seeds := 1 + h%8
						if phase%10 == 9 {
							seeds = 0
						}
						for s := uint64(0); s < seeds; s++ {
							k := mix(h + s)
							to := ChareRef{Array: arr, Index: int32(k % uint64(seq.ArrayLen(arr)))}
							msg := cascadeMsg{key: k, depth: 1 + int(k>>32%6)}
							seq.Send(to, msg)
							par.Send(to, msg)
						}
						want, got := seq.Drain(), par.Drain()
						requireDrained(t, par)
						requireScheduleIndependentEqual(t, want, got)
						if seeds == 0 && (got.Messages != 0 || got.WireMessages != 0 || len(got.Reductions) != 0) {
							t.Fatalf("phase %d seeded nothing but reports %+v", phase, got)
						}
					}
				})
			}
		}
	}
}

// BenchmarkParallelPhaseLatency is the fixed cost of one parallel phase:
// 16 PEs drain a phase of one seeded message.
func BenchmarkParallelPhaseLatency(b *testing.B) {
	rt := New(Config{PEs: 16, Parallel: true, AggBufferSize: 64})
	id := rt.NewArray(16, func(int32) Chare { return &counterChare{} }, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Send(ChareRef{Array: id, Index: int32(i % 16)}, intMsg{})
		rt.Drain()
	}
}
