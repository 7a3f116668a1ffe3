package des

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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

// referenceTryInfect runs one directed transmission trial from infectious
// src to susceptible dst, if their states allow it. scale multiplies the
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

// scheduleDay draws n static visits for a Schedule: randomLocationDay's
// well-formed ones, of which about one in eight each arrives with another
// visit (same-minute arrivals), as another leaves (touching intervals), or
// is another's person (repeated persons); with probability inverted each
// then ends at or before it starts, a visit that never leaves.
func scheduleDay(s *xrand.Stream, n, subs int, inverted float64) []Visitor {
	visitors := randomLocationDay(s, n, subs, 0)
	for i := range visitors {
		v, o := &visitors[i], visitors[s.Intn(n)]
		switch s.Intn(8) {
		case 0:
			v.Start = o.Start
		case 1:
			v.Start = min(o.End, 1439)
		case 2:
			v.Person = o.Person
		}
		v.End = max(v.End, v.Start+1)
		if s.Float64() < inverted {
			v.End = v.Start - int16(s.Intn(int(v.Start)+1))
		}
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

// TestScheduledSimulateMatchesReference simulates static schedules the way
// the engine does: a few locations share one Schedule, and each of several
// days fills every location's slots, all but one of them, or a random
// subset — so slots filled on an earlier day must not visit — and adds
// random extras: replicas of infectious visitors in mixing mode, visitors
// of any sublocation (the schedule's or none of them) without. The
// reference simulates the day's filled slots plus its extras as one visitor
// list. Over a third of the location-days have every slot filled and no
// extras, whose counters Schedule.Simulate takes from the schedule; the
// guard also requires enough partly filled days without extras, and enough
// days with extras, whose counters it counts in one pass.
func TestScheduledSimulateMatchesReference(t *testing.T) {
	s := xrand.NewStream(20261015)
	taus := []float64{0, 0.0005, 0.02, 10}
	var out Result
	var trials, infections, extras int64
	var days, fullDays, fullTrials, fullInfections int64
	// Location-days partly filled without extras, and carrying extras:
	// count, trials, infections.
	var partial, extra [3]int64
	for i := 0; i < 3000; {
		offsets := []int32{0}
		var slots []Visitor
		for l := 1 + s.Intn(3); l > 0; l-- {
			slots = append(slots, scheduleDay(s, s.Intn(60), 1+s.Intn(6), 0.02)...)
			offsets = append(offsets, int32(len(slots)))
		}
		// The visits as given, static fields only, as Visit returns them.
		given := slices.Clone(slots)
		for j := range given {
			given[j].Infectivity, given[j].Susceptibility = 0, 0
		}
		static, renumber := NewSchedule(slots, offsets)
		sched := static.NewDay()
		for day := 0; day < 4 && i < 3000; day, i = day+1, i+1 {
			sched.NextDay()
			p := Params{Day: uint64(s.Intn(50)), LocKey: uint64(s.Intn(1000)), SubBase: int32(s.Intn(5)), Tau: taus[s.Intn(len(taus))]}
			if i%3 == 0 {
				p.Mixing = []float64{0.3, 1}[s.Intn(2)]
			}
			// Every location is filled before any is simulated, as the
			// person phase precedes the location phase. Three days in five
			// fill every slot, one all but one, one a random share.
			filled := make([][]Visitor, len(offsets)-1)
			kind, fill := s.Intn(5), s.Float64()
			for l := range filled {
				lo, hi := offsets[l], offsets[l+1]
				unfilled := lo + int32(s.Intn(max(1, int(hi-lo))))
				for slot := lo; slot < hi; slot++ {
					if kind == 3 && slot == unfilled || kind == 4 && s.Float64() >= fill {
						continue
					}
					v := given[slot]
					if got := static.Visit(renumber[slot]); got != v {
						t.Fatalf("visit %d is slot %d, which holds %+v, want %+v", slot, renumber[slot], got, v)
					}
					switch s.Intn(5) {
					case 0:
						v.Infectivity = 0.5 + s.Float64()
					case 1:
						v.Infectivity, v.Susceptibility = float64(s.Intn(2)), float64(s.Intn(2))
					default:
						v.Susceptibility = 0.5 + s.Float64()
					}
					sched.Fill(renumber[slot], v.Infectivity, v.Susceptibility)
					filled[l] = append(filled[l], v)
				}
			}
			for l := range filled {
				var x []Visitor
				k := s.Intn(8) - 3
				if kind < 3 {
					k = s.Intn(12) - 7
				}
				if k > 0 {
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
				days++
				switch {
				case len(x) > 0:
					extra[0], extra[1], extra[2] = extra[0]+1, extra[1]+out.Trials, extra[2]+int64(len(out.Infections))
				case len(filled[l]) == int(offsets[l+1]-offsets[l]):
					fullDays++
					fullTrials += out.Trials
					fullInfections += int64(len(out.Infections))
				default:
					partial[0], partial[1], partial[2] = partial[0]+1, partial[1]+out.Trials, partial[2]+int64(len(out.Infections))
				}
			}
		}
	}
	if trials < 100000 || infections < 10000 || extras < 5000 {
		t.Fatalf("inputs too tame to compare anything: %d trials, %d infections, %d extras", trials, infections, extras)
	}
	if 3*fullDays < days || fullTrials < 100000 || fullInfections < 10000 {
		t.Fatalf("too few fully filled location-days: %d of %d, with %d trials and %d infections", fullDays, days, fullTrials, fullInfections)
	}
	if partial[0] < 1000 || partial[1] < 50000 || partial[2] < 5000 {
		t.Fatalf("too few partly filled location-days without extras: %d, with %d trials and %d infections", partial[0], partial[1], partial[2])
	}
	if extra[0] < 2000 || extra[1] < 150000 || extra[2] < 15000 {
		t.Fatalf("too few location-days with extras: %d, with %d trials and %d infections", extra[0], extra[1], extra[2])
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

// Visits that start before midnight, which only the package-level Simulate
// takes, can overlap for more than a day: their reciprocals come from a
// division rather than the table.
func TestLongOverlapsMatchReference(t *testing.T) {
	s := xrand.NewStream(20261016)
	p := Params{Day: 2, LocKey: 5, Tau: 0.0005}
	var out Result
	Simulate([]Visitor{{Person: 1, Start: -500, End: 1440, Infectivity: 1}, {Person: 2, Start: -500, End: 1440, Susceptibility: 1}}, p, &out)
	if out.Trials != 1 || out.SumReciprocal != 1/float64(1940) {
		t.Fatalf("one 1940-minute trial: %d trials, SumReciprocal %v", out.Trials, out.SumReciprocal)
	}
	for i := 0; i < 200; i++ {
		visitors := randomLocationDay(s, 2+s.Intn(40), 1+s.Intn(3), 0.05)
		for j := range visitors {
			if s.Intn(2) == 0 {
				visitors[j].Start -= int16(s.Intn(3000))
			}
		}
		out.Reset()
		Simulate(visitors, p, &out)
		checkMatchesReference(t, fmt.Sprintf("input %d", i), visitors, p, &out)
	}
}

// A reused Result simulates without allocating, with and without mixing,
// through Simulate and through a Schedule: on a location with every slot
// filled, with and without infectious visitors; on one with every tenth
// slot unfilled; and with extras.
func TestSimulateAllocations(t *testing.T) {
	s := xrand.NewStream(8)
	visitors := randomLocationDay(s, 300, 4, 0.05)
	static, _ := NewSchedule(slices.Concat(randomLocationDay(s, 300, 4, 0), randomLocationDay(s, 300, 4, 0),
		randomLocationDay(s, 300, 4, 0)), []int32{0, 300, 600, 900})
	sched := static.NewDay()
	sched.NextDay()
	for slot := range int32(900) {
		switch {
		case slot >= 600 && slot%10 == 0:
		case slot/300 != 1 && s.Intn(4) == 0:
			sched.Fill(slot, 0.5+s.Float64(), 0)
		default:
			sched.Fill(slot, 0, 0.5+s.Float64())
		}
	}
	extras := randomLocationDay(s, 20, 6, 0.2)
	for j := range extras {
		extras[j].Person += 1000
	}
	for _, c := range []struct {
		name  string
		quiet bool // nobody infectious
		call  func(p Params, out *Result)
	}{
		{"Simulate", false, func(p Params, out *Result) { Simulate(visitors, p, out) }},
		{"Schedule.Simulate, every slot filled", false, func(p Params, out *Result) { sched.Simulate(0, nil, p, out) }},
		{"Schedule.Simulate, every slot filled, none infectious", true, func(p Params, out *Result) { sched.Simulate(1, nil, p, out) }},
		{"Schedule.Simulate, partly filled", false, func(p Params, out *Result) { sched.Simulate(2, nil, p, out) }},
		{"Schedule.Simulate with extras", false, func(p Params, out *Result) { sched.Simulate(0, extras, p, out) }},
	} {
		name, call := c.name, c.call
		for _, p := range []Params{{Day: 1, LocKey: 7, Tau: 0.02}, {Day: 1, LocKey: 7, Tau: 0.02, Mixing: 0.3}} {
			var out Result
			call(p, &out) // grows the scratch
			if (len(out.Infections) == 0) != c.quiet {
				t.Fatalf("%s: %d infections", name, len(out.Infections))
			}
			if allocs := testing.AllocsPerRun(20, func() {
				out.Reset()
				call(p, &out)
			}); allocs != 0 {
				t.Errorf("%s, mixing %g: %v allocations per call on a reused Result, want 0", name, p.Mixing, allocs)
			}
		}
	}
}

// The schedule's full-day Interactions are the counting pass's, by
// sublocation and in mixing mode. With every slot filled, and nobody
// infectious or susceptible, Schedule.Simulate (which then reads the
// counters NewSchedule recorded) counts what Simulate's pass over the same
// visits as extras does, same-minute arrivals, touching intervals and
// visits that never leave included; with one slot unfilled, when its own
// pass skips the slot, it still does.
func TestStaticInteractionsMatchWalk(t *testing.T) {
	s := xrand.NewStream(20261017)
	var interactions int64
	for iter := 0; iter < 300; iter++ {
		offsets := []int32{0}
		var slots []Visitor
		for l := 1 + s.Intn(4); l > 0; l-- {
			slots = append(slots, scheduleDay(s, s.Intn(80), 1+s.Intn(5), 0.1)...)
			offsets = append(offsets, int32(len(slots)))
		}
		given := slices.Clone(slots)
		for j := range given {
			given[j].Infectivity, given[j].Susceptibility = 0, 0
		}
		static, renumber := NewSchedule(slots, offsets)
		sched := static.NewDay()
		for _, mixing := range []float64{0, 0.5} {
			p := Params{Day: 1, LocKey: 1, Mixing: mixing}
			for l := range len(offsets) - 1 {
				lo, hi := offsets[l], offsets[l+1]
				for _, unfilled := range []int32{-1, lo + int32(s.Intn(max(1, int(hi-lo))))} {
					sched.NextDay()
					var visits []Visitor
					for slot := lo; slot < hi; slot++ {
						if slot != unfilled {
							sched.Fill(renumber[slot], 0, 0)
							visits = append(visits, given[slot])
						}
					}
					var got, want Result
					sched.Simulate(int32(l), nil, p, &got)
					Simulate(visits, p, &want)
					if got.Interactions != want.Interactions || got.Events != want.Events {
						t.Fatalf("schedule %d location %d (mixing %g, unfilled %d): %d events, %d interactions; Simulate: %d, %d",
							iter, l, mixing, unfilled, got.Events, got.Interactions, want.Events, want.Interactions)
					}
					interactions += got.Interactions
				}
			}
		}
	}
	if interactions < 100000 {
		t.Fatalf("only %d interactions compared", interactions)
	}
}

// Parallel location managers simulate distinct locations of one schedule at
// once. Concurrent Schedule.Simulate calls, each into its own Result, must
// find what a sequential pass does, whether a location has every slot
// filled or not, and may only read what NewSchedule built.
func TestScheduleSimulateRace(t *testing.T) {
	s := xrand.NewStream(20261018)
	const locations, workers = 24, 4
	offsets := []int32{0}
	var slots []Visitor
	for range locations {
		slots = append(slots, scheduleDay(s, 40+s.Intn(60), 1+s.Intn(4), 0)...)
		offsets = append(offsets, int32(len(slots)))
	}
	static, _ := NewSchedule(slots, offsets)
	sched := static.NewDay()
	sched.NextDay()
	for l := range locations {
		for slot := offsets[l]; slot < offsets[l+1]; slot++ {
			switch {
			case l%3 == 2 && slot == offsets[l]: // unfilled: the counting pass
			case s.Intn(4) == 0:
				sched.Fill(slot, 0.5+s.Float64(), float64(s.Intn(2)))
			default:
				sched.Fill(slot, 0, 0.5+s.Float64())
			}
		}
	}
	for _, mixing := range []float64{0, 0.3} {
		params := func(l int) Params { return Params{Day: 3, LocKey: uint64(l), Tau: 0.02, Mixing: mixing} }
		want := make([]Result, locations)
		var infections int
		for l := range want {
			sched.Simulate(int32(l), nil, params(l), &want[l])
			infections += len(want[l].Infections)
		}
		if infections == 0 {
			t.Fatalf("mixing %g: no infections to compare", mixing)
		}
		got := make([]Result, locations)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for l := w; l < locations; l += workers {
					sched.Simulate(int32(l), nil, params(l), &got[l])
				}
			}()
		}
		wg.Wait()
		for l := range got {
			g, w := &got[l], &want[l]
			if g.Events != w.Events || g.Interactions != w.Interactions || g.Trials != w.Trials ||
				g.ContactMinutes != w.ContactMinutes || g.SumReciprocal != w.SumReciprocal || !slices.Equal(g.Infections, w.Infections) {
				t.Fatalf("mixing %g location %d: concurrent %+v, sequential %+v", mixing, l, *g, *w)
			}
		}
	}
}
