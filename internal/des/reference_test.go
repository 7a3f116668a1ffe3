package des

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refEvent is an arrive or depart of one visitor.
type refEvent struct {
	minute int16
	arrive bool
	idx    int32 // visitor index
}

// referenceSimulate is Simulate as it stood before the scratch-reusing
// rewrite (sort.Slice over event structs, occupancy and pending maps, one
// meet closure call per co-present pair), body moved here verbatim: the
// oracle of TestSimulateMatchesReference.
func referenceSimulate(visitors []Visitor, p Params, out *Result) {
	out.Events += 2 * len(visitors)
	if len(visitors) < 2 {
		return
	}
	events := make([]refEvent, 0, 2*len(visitors))
	for i, v := range visitors {
		events = append(events,
			refEvent{minute: v.Start, arrive: true, idx: int32(i)},
			refEvent{minute: v.End, arrive: false, idx: int32(i)},
		)
	}
	// Departures sort before arrivals at the same minute so that touching
	// intervals ([a,b) then [b,c)) never interact.
	sort.Slice(events, func(i, j int) bool {
		if events[i].minute != events[j].minute {
			return events[i].minute < events[j].minute
		}
		if events[i].arrive != events[j].arrive {
			return !events[i].arrive
		}
		// Tie-break by visitor id for full determinism.
		return visitors[events[i].idx].Person < visitors[events[j].idx].Person
	})

	// occupancy[group] lists currently present visitor indices; the group
	// is the fragment-local sublocation, or the original sublocation when
	// the mixing model is active.
	groupOf := func(v *Visitor) int32 {
		if p.Mixing > 0 {
			return v.OrigSub
		}
		return v.Sub
	}
	occupancy := make(map[int32][]int32)
	// pending[person] is the best (earliest) infection found so far.
	var pending map[int32]Infection

	for _, e := range events {
		v := &visitors[e.idx]
		group := groupOf(v)
		if !e.arrive {
			occ := occupancy[group]
			for k, idx := range occ {
				if idx == e.idx {
					occ[k] = occ[len(occ)-1]
					occupancy[group] = occ[:len(occ)-1]
					break
				}
			}
			continue
		}
		meet := func(otherIdx int32, scale float64) {
			o := &visitors[otherIdx]
			out.Interactions++
			// Overlap starts now (arrival) and ends at the earlier depart.
			end := v.End
			if o.End < end {
				end = o.End
			}
			overlap := int(end) - int(e.minute)
			if overlap <= 0 {
				return
			}
			referenceTryInfect(v, o, overlap, e.minute, scale, p, out, &pending)
			referenceTryInfect(o, v, overlap, e.minute, scale, p, out, &pending)
		}
		if p.Mixing > 0 {
			for g, occ := range occupancy {
				scale := p.Mixing
				if g == group {
					scale = 1
				}
				for _, otherIdx := range occ {
					meet(otherIdx, scale)
				}
			}
		} else {
			for _, otherIdx := range occupancy[group] {
				meet(otherIdx, 1)
			}
		}
		occupancy[group] = append(occupancy[group], e.idx)
	}

	for _, inf := range pending {
		out.Infections = append(out.Infections, inf)
	}
	// Canonical order for downstream determinism.
	sort.Slice(out.Infections, func(i, j int) bool {
		a, b := out.Infections[i], out.Infections[j]
		if a.Person != b.Person {
			return a.Person < b.Person
		}
		if a.Minute != b.Minute {
			return a.Minute < b.Minute
		}
		return a.Infector < b.Infector
	})
}

// tryInfect runs one directed transmission trial from infectious src to
// susceptible dst, if their states allow it. scale multiplies the
// transmission probability (1 for same-sublocation contact, the mixing
// factor otherwise).
func referenceTryInfect(src, dst *Visitor, overlapMin int, at int16, scale float64, p Params, out *Result, pending *map[int32]Infection) {
	if src.Infectivity <= 0 || dst.Susceptibility <= 0 || scale <= 0 {
		return
	}
	out.Trials++
	out.ContactMinutes += int64(overlapMin)
	out.SumReciprocal += 1 / float64(overlapMin)
	prob := scale * transmissionProb(p.Tau, src.Infectivity, dst.Susceptibility, overlapMin)
	// The draw is keyed by content only — day, original location id,
	// original sublocations, the pair, and the overlap start — never by
	// execution order, so outcomes survive any re-partitioning (and, in
	// mixing mode, survive retain-edges splitting with replication).
	var subKey uint64
	if p.Mixing > 0 {
		subKey = xrand.Hash(uint64(src.OrigSub), uint64(dst.OrigSub))
	} else {
		subKey = uint64(p.SubBase + dst.Sub)
	}
	u := xrand.KeyedFloat64(0x1fec7, p.Day, p.LocKey,
		subKey, uint64(src.Person), uint64(dst.Person), uint64(at))
	if u >= prob {
		return
	}
	inf := Infection{Person: dst.Person, Infector: src.Person, Minute: at}
	if *pending == nil {
		*pending = make(map[int32]Infection)
	}
	if old, ok := (*pending)[dst.Person]; ok {
		if old.Minute < inf.Minute || (old.Minute == inf.Minute && old.Infector <= inf.Infector) {
			return
		}
	}
	(*pending)[dst.Person] = inf
}

// randomLocationDay draws one location-day of n visitors from s. Beyond
// well-formed visits it produces, with probability wild each, the inputs
// the rewrite could plausibly get wrong: persons visiting twice,
// zero-length and inverted visits, visitors both infectious and
// susceptible (or neither), sublocation ids that are negative or huge, and
// OrigSub values outside any local range.
func randomLocationDay(s *xrand.Stream, n, subs int, wild float64) []Visitor {
	visitors := make([]Visitor, n)
	for i := range visitors {
		start := int16(s.Intn(1300))
		v := Visitor{
			Person: int32(i),
			Sub:    int32(s.Intn(subs)),
			Start:  start,
			End:    start + int16(1+s.Intn(1440-int(start))),
		}
		v.OrigSub = v.Sub
		if s.Float64() < 0.2 {
			v.Infectivity = 0.5 + s.Float64()
		} else {
			v.Susceptibility = 0.5 + s.Float64()
		}
		if s.Float64() < wild {
			v.Person = int32(s.Intn(n)) // a second visit of somebody else
		}
		if s.Float64() < wild {
			v.End = v.Start - int16(s.Intn(3)*s.Intn(200)) // zero-length or inverted
		}
		if s.Float64() < wild {
			v.Infectivity, v.Susceptibility = float64(s.Intn(2)), float64(s.Intn(2))
		}
		if s.Float64() < wild {
			v.Sub = []int32{-1, -1 << 31, 1<<31 - 1, 1 << 20}[s.Intn(4)]
			v.OrigSub = v.Sub
		}
		if s.Float64() < wild {
			v.OrigSub = int32(s.Intn(1<<20)) - 1<<19
		}
		visitors[i] = v
	}
	return visitors
}

// checkMatchesReference compares got, one location-day's outcome, with
// referenceSimulate's over the day's visitors, field by field: the
// integers exactly, the float sum to rounding (the two add the same terms
// in different orders).
func checkMatchesReference(t *testing.T, label string, visitors []Visitor, p Params, got *Result) {
	t.Helper()
	var want Result
	referenceSimulate(visitors, p, &want)
	if got.Events != want.Events || got.Interactions != want.Interactions ||
		got.Trials != want.Trials || got.ContactMinutes != want.ContactMinutes {
		t.Fatalf("%s: counters: got events %d interactions %d trials %d minutes %d, want %d %d %d %d", label,
			got.Events, got.Interactions, got.Trials, got.ContactMinutes,
			want.Events, want.Interactions, want.Trials, want.ContactMinutes)
	}
	if !slices.Equal(got.Infections, want.Infections) {
		t.Fatalf("%s: infections:\n got  %v\n want %v", label, got.Infections, want.Infections)
	}
	if diff := math.Abs(got.SumReciprocal - want.SumReciprocal); diff > 1e-9*math.Abs(want.SumReciprocal) {
		t.Fatalf("%s: SumReciprocal %v, want %v", label, got.SumReciprocal, want.SumReciprocal)
	}
}

func TestSimulateMatchesReference(t *testing.T) {
	s := xrand.NewStream(20261003)
	taus := []float64{0, 0.0005, 0.02, 10}
	var out Result // reused throughout, as a location manager reuses its own
	var trials, infections int64
	for i := 0; i < 3000; i++ {
		p := Params{Day: uint64(s.Intn(50)), LocKey: uint64(s.Intn(1000)), SubBase: int32(s.Intn(5)), Tau: taus[s.Intn(len(taus))]}
		if i%3 == 0 {
			p.Mixing = []float64{0.3, 1}[s.Intn(2)]
		}
		wild := []float64{0, 0.05, 0.3}[s.Intn(3)]
		visitors := randomLocationDay(s, s.Intn(60), 1+s.Intn(6), wild)
		out.Reset()
		Simulate(visitors, p, &out)
		checkMatchesReference(t, fmt.Sprintf("input %d (mixing %g, wild %g)", i, p.Mixing, wild), visitors, p, &out)
		trials += out.Trials
		infections += int64(len(out.Infections))
	}
	if trials < 100000 || infections < 10000 {
		t.Fatalf("inputs too tame to compare anything: %d trials, %d infections", trials, infections)
	}
	// Crowded locations: everybody in a handful of rooms all day.
	for _, mixing := range []float64{0, 0.3} {
		visitors := randomLocationDay(s, 3000, 3, 0.05)
		p := Params{Day: 3, LocKey: 9, Tau: 0.0005, Mixing: mixing}
		out.Reset()
		Simulate(visitors, p, &out)
		checkMatchesReference(t, fmt.Sprintf("3000 visitors, mixing %g", mixing), visitors, p, &out)
	}
	// More visitors than a 16-bit index could number (short visits over
	// many rooms keep the pair count small).
	visitors := randomLocationDay(s, 70000, 4000, 0)
	for i := range visitors {
		visitors[i].End = visitors[i].Start + int16(1+s.Intn(20))
	}
	p := Params{Day: 1, LocKey: 2, Tau: 0.01}
	out.Reset()
	Simulate(visitors, p, &out)
	checkMatchesReference(t, "70000 visitors", visitors, p, &out)
	if out.Trials == 0 || len(out.Infections) == 0 {
		t.Fatalf("70000 visitors: %d trials, %d infections", out.Trials, len(out.Infections))
	}
}

// TestScheduledSimulateMatchesReference walks static schedules the way the
// engine does: a few locations share one Schedule, and each of several days
// fills a random subset of every location's slots — so slots filled on an
// earlier day must not visit — and adds random extras: replicas of
// infectious visitors in mixing mode, visitors of any sublocation (the
// schedule's or none of them) without. The reference simulates the day's
// filled slots plus its extras as one visitor list.
func TestScheduledSimulateMatchesReference(t *testing.T) {
	s := xrand.NewStream(20261015)
	taus := []float64{0, 0.0005, 0.02, 10}
	var out Result
	var trials, infections, extras int64
	for i := 0; i < 3000; {
		offsets := []int32{0}
		var slots []Visitor
		for l := 1 + s.Intn(3); l > 0; l-- {
			slots = append(slots, randomLocationDay(s, s.Intn(60), 1+s.Intn(6), 0)...)
			offsets = append(offsets, int32(len(slots)))
		}
		sched := NewSchedule(slots, offsets)
		for day := 0; day < 4 && i < 3000; day, i = day+1, i+1 {
			sched.NextDay()
			p := Params{Day: uint64(s.Intn(50)), LocKey: uint64(s.Intn(1000)), SubBase: int32(s.Intn(5)), Tau: taus[s.Intn(len(taus))]}
			if i%3 == 0 {
				p.Mixing = []float64{0.3, 1}[s.Intn(2)]
			}
			// Every location is filled before any is simulated, as the
			// person phase precedes the location phase.
			filled := make([][]Visitor, len(offsets)-1)
			fill := s.Float64()
			for l := range filled {
				for slot := offsets[l]; slot < offsets[l+1]; slot++ {
					if s.Float64() >= fill {
						continue
					}
					v := sched.Visit(slot)
					switch s.Intn(5) {
					case 0:
						v.Infectivity = 0.5 + s.Float64()
					case 1:
						v.Infectivity, v.Susceptibility = float64(s.Intn(2)), float64(s.Intn(2))
					default:
						v.Susceptibility = 0.5 + s.Float64()
					}
					sched.Fill(slot, v.Infectivity, v.Susceptibility)
					filled[l] = append(filled[l], v)
				}
			}
			for l := range filled {
				var x []Visitor
				if k := s.Intn(8) - 3; k > 0 {
					x = randomLocationDay(s, k, 8, 0.2)
					for j := range x {
						x[j].Person += 1000
						if p.Mixing > 0 {
							x[j].Infectivity, x[j].Susceptibility = 0.5+s.Float64(), 0
							x[j].OrigSub = int32(s.Intn(12)) - 3
						}
					}
				}
				extras += int64(len(x))
				out.Reset()
				sched.Simulate(int32(l), x, p, &out)
				checkMatchesReference(t, fmt.Sprintf("input %d location %d (mixing %g, %d filled, %d extras)", i, l, p.Mixing, len(filled[l]), len(x)),
					append(filled[l], x...), p, &out)
				trials += out.Trials
				infections += int64(len(out.Infections))
			}
		}
	}
	if trials < 100000 || infections < 10000 || extras < 5000 {
		t.Fatalf("inputs too tame to compare anything: %d trials, %d infections, %d extras", trials, infections, extras)
	}
}

// A second Simulate into a Result that was not Reset appends: counters
// add up and the first call's infections stay exactly where they were.
func TestSimulateAppends(t *testing.T) {
	s := xrand.NewStream(5)
	p := Params{Day: 1, LocKey: 7, Tau: 0.02}
	a, b := randomLocationDay(s, 200, 3, 0.05), randomLocationDay(s, 150, 2, 0.05)
	var first, second, both Result
	Simulate(a, p, &first)
	Simulate(b, p, &second)
	if len(first.Infections) < 5 || len(second.Infections) < 5 {
		t.Fatalf("too few infections to tell: %d and %d", len(first.Infections), len(second.Infections))
	}
	Simulate(a, p, &both)
	Simulate(b, p, &both)
	if !slices.Equal(both.Infections, append(slices.Clone(first.Infections), second.Infections...)) {
		t.Fatalf("second call disturbed the first call's infections:\n got  %v\n want %v then %v",
			both.Infections, first.Infections, second.Infections)
	}
	if both.Events != first.Events+second.Events || both.Interactions != first.Interactions+second.Interactions ||
		both.Trials != first.Trials+second.Trials || both.ContactMinutes != first.ContactMinutes+second.ContactMinutes {
		t.Fatalf("counters do not add up: %+v", both)
	}
}

// A reused Result simulates without allocating, with and without mixing.
func TestSimulateAllocations(t *testing.T) {
	s := xrand.NewStream(8)
	visitors := randomLocationDay(s, 300, 4, 0.05)
	for _, p := range []Params{{Day: 1, LocKey: 7, Tau: 0.02}, {Day: 1, LocKey: 7, Tau: 0.02, Mixing: 0.3}} {
		var out Result
		Simulate(visitors, p, &out) // grows the scratch
		if len(out.Infections) == 0 {
			t.Fatal("no infections: the append path is not exercised")
		}
		if allocs := testing.AllocsPerRun(20, func() {
			out.Reset()
			Simulate(visitors, p, &out)
		}); allocs != 0 {
			t.Errorf("mixing %g: %v allocations per call on a reused Result, want 0", p.Mixing, allocs)
		}
	}
}
