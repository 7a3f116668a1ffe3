package charm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// plannedSend is one batch a trafficChare sends when the driver starts it:
// n tokens for chare to, each forwarded ttl more times on arrival.
type plannedSend struct {
	to, n, ttl, size int
}

// token stands for n chare-level messages of size bytes each.
type token struct {
	n, ttl, size int
}

func (m token) WireSize() int { return m.size }

type startMsg struct{ plan []plannedSend }

// trafficChare sends its planned traffic and forwards every token it
// receives to one fixed peer until the token's ttl runs out — as one SendN
// per batch, or as n calls of Send.
type trafficChare struct {
	arr, self, peer int32
	batched         bool
}

func (c *trafficChare) send(ctx *Ctx, to int32, m token) {
	ref := ChareRef{Array: c.arr, Index: to}
	if c.batched {
		ctx.SendN(ref, m, m.n)
		return
	}
	one := m
	one.n = 1
	for range m.n {
		ctx.Send(ref, one)
	}
}

func (c *trafficChare) Recv(ctx *Ctx, msg Message) {
	switch m := msg.(type) {
	case startMsg:
		for _, s := range m.plan {
			c.send(ctx, int32(s.to), token{n: s.n, ttl: s.ttl, size: s.size})
		}
	case token:
		ctx.Contribute("tokens", int64(m.n))
		ctx.Contribute(fmt.Sprintf("at%d", c.self), int64(m.n*m.size))
		if m.ttl > 0 {
			m.ttl--
			c.send(ctx, c.peer, m)
		}
	}
}

// TestSendNMatchesSends is the differential oracle of Ctx.SendN: seeded
// random traffic — batches of 1 to 200 messages to chares on the sending PE
// and on others, forwarded along chains — sent once as one SendN per batch
// and once as one Send per message must produce deep-equal sequential
// PhaseStats, wire counts and per-PE rows included, for every aggregation
// buffer size with and without 2D routing; parallel runs must agree with
// them on every schedule-independent field.
func TestSendNMatchesSends(t *testing.T) {
	for _, agg := range []int{0, 1, 7, 64} {
		for _, route2D := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(agg)))
				pes := []int{1, 5, 9, 10}[rng.Intn(4)]
				chares := 3 * pes
				placement := make([]PE, chares)
				peer := make([]int32, chares)
				for i := range placement {
					placement[i] = PE(rng.Intn(pes))
					peer[i] = int32(rng.Intn(chares))
				}
				phases := make([][][]plannedSend, 2)
				for ph := range phases {
					phases[ph] = make([][]plannedSend, chares)
					for i := range phases[ph] {
						for range rng.Intn(4) {
							phases[ph][i] = append(phases[ph][i], plannedSend{
								to: rng.Intn(chares), n: 1 + rng.Intn(200),
								ttl: rng.Intn(3), size: 8 + rng.Intn(100),
							})
						}
					}
				}
				run := func(parallel, batched bool) []PhaseStats {
					rt := New(Config{PEs: pes, Parallel: parallel, AggBufferSize: agg, Route2D: route2D})
					var arr int32
					arr = rt.NewArray(chares, func(i int32) Chare {
						return &trafficChare{arr: arr, self: i, peer: peer[i], batched: batched}
					}, func(i int32) PE { return placement[i] })
					var out []PhaseStats
					for _, plans := range phases {
						for i, plan := range plans {
							rt.Send(ChareRef{Array: arr, Index: int32(i)}, startMsg{plan})
						}
						out = append(out, rt.Drain())
					}
					return out
				}
				name := fmt.Sprintf("agg=%d route2D=%v seed=%d pes=%d", agg, route2D, seed, pes)
				single, batched := run(false, false), run(false, true)
				for ph := range single {
					if single[ph].Messages == 0 {
						t.Fatalf("%s phase %d: no traffic", name, ph)
					}
					if !reflect.DeepEqual(single[ph], batched[ph]) {
						t.Fatalf("%s phase %d: SendN stats differ from Send's\nsend:  %+v\nsendN: %+v", name, ph, single[ph], batched[ph])
					}
				}
				for _, b := range []bool{false, true} {
					par := run(true, b)
					for ph := range single {
						requireScheduleIndependentEqual(t, single[ph], par[ph])
					}
				}
			}
		}
	}
}
