package des

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/disease"
	"repro/internal/xrand"
)

// params returns Params with a high tau so trials almost surely succeed.
func hotParams() Params { return Params{Day: 1, LocKey: 7, Tau: 10} }

func TestNoVisitorsNoWork(t *testing.T) {
	var r Result
	Simulate(nil, hotParams(), &r)
	if r.Events != 0 || len(r.Infections) != 0 {
		t.Fatalf("empty input produced %+v", r)
	}
	Simulate([]Visitor{{Person: 1, Start: 0, End: 10, Infectivity: 1}}, hotParams(), &r)
	if r.Events != 2 || len(r.Infections) != 0 {
		t.Fatalf("single visitor produced %+v", r)
	}
}

func TestBasicTransmission(t *testing.T) {
	visitors := []Visitor{
		{Person: 1, Sub: 0, Start: 60, End: 600, Infectivity: 1},
		{Person: 2, Sub: 0, Start: 60, End: 600, Susceptibility: 1},
	}
	var r Result
	Simulate(visitors, hotParams(), &r)
	if len(r.Infections) != 1 {
		t.Fatalf("want 1 infection with huge tau, got %d", len(r.Infections))
	}
	inf := r.Infections[0]
	if inf.Person != 2 || inf.Infector != 1 {
		t.Fatalf("wrong direction: %+v", inf)
	}
	if inf.Minute != 60 {
		t.Fatalf("exposure minute = %d, want 60", inf.Minute)
	}
	if r.Events != 4 || r.Trials != 1 || r.Interactions != 1 {
		t.Fatalf("counters: %+v", r)
	}
}

func TestNoTransmissionAcrossSublocations(t *testing.T) {
	visitors := []Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 1440, Infectivity: 1},
		{Person: 2, Sub: 1, Start: 0, End: 1440, Susceptibility: 1},
	}
	var r Result
	Simulate(visitors, hotParams(), &r)
	if len(r.Infections) != 0 || r.Interactions != 0 {
		t.Fatalf("different sublocations interacted: %+v", r)
	}
}

func TestNoTransmissionWithoutOverlap(t *testing.T) {
	visitors := []Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 100, Infectivity: 1},
		{Person: 2, Sub: 0, Start: 100, End: 200, Susceptibility: 1},
	}
	var r Result
	Simulate(visitors, hotParams(), &r)
	if len(r.Infections) != 0 {
		t.Fatal("touching intervals should not transmit")
	}
}

func TestSusceptiblePairNoTrial(t *testing.T) {
	visitors := []Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 100, Susceptibility: 1},
		{Person: 2, Sub: 0, Start: 0, End: 100, Susceptibility: 1},
	}
	var r Result
	Simulate(visitors, hotParams(), &r)
	if r.Trials != 0 || len(r.Infections) != 0 {
		t.Fatalf("sus-sus pair ran a trial: %+v", r)
	}
	if r.Interactions != 1 {
		t.Fatalf("interactions = %d, want 1 (co-presence is counted)", r.Interactions)
	}
}

func TestOrderInvariance(t *testing.T) {
	// The infection set must be identical no matter how visitors are
	// ordered — the core partition-invariance property.
	base := []Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 400, Infectivity: 1},
		{Person: 2, Sub: 0, Start: 100, End: 500, Susceptibility: 1},
		{Person: 3, Sub: 0, Start: 50, End: 450, Susceptibility: 1},
		{Person: 4, Sub: 1, Start: 0, End: 400, Infectivity: 0.5},
		{Person: 5, Sub: 1, Start: 10, End: 300, Susceptibility: 0.8},
		{Person: 6, Sub: 0, Start: 200, End: 600, Infectivity: 0.7},
	}
	p := Params{Day: 3, LocKey: 11, Tau: 0.001}
	var want Result
	Simulate(base, p, &want)

	s := xrand.NewStream(5)
	for trial := 0; trial < 20; trial++ {
		perm := s.Perm(len(base))
		shuffled := make([]Visitor, len(base))
		for i, j := range perm {
			shuffled[i] = base[j]
		}
		var got Result
		Simulate(shuffled, p, &got)
		if len(got.Infections) != len(want.Infections) {
			t.Fatalf("permutation changed infection count: %d vs %d", len(got.Infections), len(want.Infections))
		}
		for i := range got.Infections {
			if got.Infections[i] != want.Infections[i] {
				t.Fatalf("permutation changed infections: %+v vs %+v", got.Infections[i], want.Infections[i])
			}
		}
		if got.Interactions != want.Interactions || got.Trials != want.Trials {
			t.Fatalf("permutation changed counters")
		}
	}
}

func TestEarliestInfectionWins(t *testing.T) {
	// Two infectious people overlap the same susceptible at different
	// times; with tau huge both trials succeed and the earlier one must be
	// kept.
	visitors := []Visitor{
		{Person: 9, Sub: 0, Start: 0, End: 1440, Susceptibility: 1},
		{Person: 2, Sub: 0, Start: 300, End: 400, Infectivity: 1},
		{Person: 1, Sub: 0, Start: 100, End: 200, Infectivity: 1},
	}
	var r Result
	Simulate(visitors, hotParams(), &r)
	if len(r.Infections) != 1 {
		t.Fatalf("want deduplicated single infection, got %d", len(r.Infections))
	}
	if r.Infections[0].Infector != 1 || r.Infections[0].Minute != 100 {
		t.Fatalf("earliest infection should win: %+v", r.Infections[0])
	}
}

func TestBidirectionalTrial(t *testing.T) {
	// A symptomatic-but-susceptible pairing in both directions: person 1
	// can infect 2 and person 2 can infect 1.
	visitors := []Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 500, Infectivity: 1, Susceptibility: 0},
		{Person: 2, Sub: 0, Start: 0, End: 500, Infectivity: 1, Susceptibility: 0},
	}
	var r Result
	Simulate(visitors, hotParams(), &r)
	if r.Trials != 0 {
		t.Fatalf("two infectious non-susceptibles should not trial: %+v", r)
	}
	visitors[0].Susceptibility = 1
	visitors[1].Susceptibility = 1
	r.Reset()
	Simulate(visitors, hotParams(), &r)
	if r.Trials != 2 {
		t.Fatalf("want 2 directed trials, got %d", r.Trials)
	}
}

func TestProbabilityZeroTau(t *testing.T) {
	visitors := []Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 1440, Infectivity: 1},
		{Person: 2, Sub: 0, Start: 0, End: 1440, Susceptibility: 1},
	}
	var r Result
	Simulate(visitors, Params{Day: 1, LocKey: 1, Tau: 0}, &r)
	if len(r.Infections) != 0 {
		t.Fatal("tau=0 must never transmit")
	}
}

func TestSplitLocKeyInvariance(t *testing.T) {
	// Simulating sublocations {0,1} of a location together must equal
	// simulating each sublocation in a separate fragment with the same
	// LocKey and the appropriate SubBase: the exact property splitLoc
	// relies on for correctness.
	all := []Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 700, Infectivity: 1},
		{Person: 2, Sub: 0, Start: 60, End: 800, Susceptibility: 1},
		{Person: 3, Sub: 1, Start: 0, End: 700, Infectivity: 1},
		{Person: 4, Sub: 1, Start: 60, End: 800, Susceptibility: 1},
		{Person: 5, Sub: 1, Start: 0, End: 500, Susceptibility: 1},
	}
	p := Params{Day: 9, LocKey: 42, Tau: 0.002}
	var whole Result
	Simulate(all, p, &whole)

	var frag0, frag1 Result
	var sub0, sub1 []Visitor
	for _, v := range all {
		if v.Sub == 0 {
			sub0 = append(sub0, v)
		} else {
			v.Sub = 0 // fragment renumbers its rooms from zero
			sub1 = append(sub1, v)
		}
	}
	Simulate(sub0, Params{Day: 9, LocKey: 42, SubBase: 0, Tau: 0.002}, &frag0)
	Simulate(sub1, Params{Day: 9, LocKey: 42, SubBase: 1, Tau: 0.002}, &frag1)

	merged := append(append([]Infection(nil), frag0.Infections...), frag1.Infections...)
	if len(merged) != len(whole.Infections) {
		t.Fatalf("split changed infections: %d vs %d", len(merged), len(whole.Infections))
	}
	seen := make(map[Infection]bool)
	for _, i := range whole.Infections {
		seen[i] = true
	}
	for _, i := range merged {
		if !seen[i] {
			t.Fatalf("split produced different infection %+v", i)
		}
	}
}

func TestCountersProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := xrand.NewStream(seed)
		n := 2 + s.Intn(40)
		visitors := make([]Visitor, n)
		for i := range visitors {
			start := int16(s.Intn(1000))
			visitors[i] = Visitor{
				Person:         int32(i),
				Sub:            int32(s.Intn(3)),
				Start:          start,
				End:            start + int16(1+s.Intn(400)),
				Infectivity:    float64(s.Intn(2)),
				Susceptibility: float64(s.Intn(2)),
			}
		}
		var r Result
		Simulate(visitors, Params{Day: seed, LocKey: 3, Tau: 0.001}, &r)
		if r.Events != 2*n {
			return false
		}
		// Trials cannot exceed 2x interactions; contact minutes positive
		// iff trials happened.
		if r.Trials > 2*r.Interactions {
			return false
		}
		if (r.ContactMinutes > 0) != (r.Trials > 0) {
			return false
		}
		// No one is infected twice.
		seen := map[int32]bool{}
		for _, inf := range r.Infections {
			if seen[inf.Person] {
				return false
			}
			seen[inf.Person] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResultReset(t *testing.T) {
	var r Result
	Simulate([]Visitor{
		{Person: 1, Sub: 0, Start: 0, End: 100, Infectivity: 1},
		{Person: 2, Sub: 0, Start: 0, End: 100, Susceptibility: 1},
	}, hotParams(), &r)
	r.Reset()
	if r.Events != 0 || len(r.Infections) != 0 || r.Trials != 0 || r.SumReciprocal != 0 {
		t.Fatalf("reset incomplete: %+v", r)
	}
}

// transmissionProb is des's own copy of the disease model's transmission
// function; the two must agree bit for bit, degenerate arguments included.
func TestTransmissionProbMatchesDiseaseModel(t *testing.T) {
	values := []float64{-1, 0, 1e-9, 0.0005, 0.3, 1, 1.5, 40}
	for _, tau := range values {
		m := &disease.Model{Transmissibility: tau}
		for _, inf := range values {
			for _, sus := range values {
				for _, minutes := range []int{-5, 0, 1, 17, 480, 1440} {
					got, want := transmissionProb(tau, inf, sus, minutes), m.TransmissionProb(minutes, inf, sus)
					if got != want {
						t.Fatalf("tau %g inf %g sus %g minutes %d: des %v, disease %v", tau, inf, sus, minutes, got, want)
					}
				}
			}
		}
	}
}

// trialBound may reject only draws the exact probability rejects, so it
// must cover the probability where the rounding is tightest: through the
// subnormals, within a few ulps of 2^-53 (where 1-fl(exp(-y)) exceeds y),
// and for negative tau, at every mixing scale and however the exponent is
// factored.
func TestTrialBoundCoversProb(t *testing.T) {
	ys := []float64{0, 50}
	for y := math.SmallestNonzeroFloat64; y < 50; y = max(y*1.01, math.Nextafter(y, 50)) {
		ys = append(ys, y)
	}
	tight := 0
	for _, c := range []float64{0x1p-54, 0x1p-53, 0x1p-52} {
		for k := int64(-64); k <= 64; k++ {
			y := math.Float64frombits(uint64(int64(math.Float64bits(c)) + k))
			ys = append(ys, y)
			if 1-math.Exp(-y) > y {
				tight++
			}
		}
	}
	if tight == 0 {
		t.Fatal("no y near 2^-53 where 1-exp(-y) rounds above y: the grid misses the tight spot")
	}
	factors := []struct {
		inf, sus float64
		dur      int
	}{{1, 1, 1}, {0.7, 1.3, 480}, {2.5, 0.01, 1440}}
	for _, y := range ys {
		for _, sign := range []float64{1, -1} {
			for _, f := range factors {
				tau := sign * y / (f.inf * f.sus * float64(f.dur))
				for _, scale := range []float64{1, 0.3, 1e-3} {
					bound := trialBound(scale, tau, f.inf, f.sus, f.dur)
					if prob := scale * transmissionProb(tau, f.inf, f.sus, f.dur); !(bound >= prob) {
						t.Fatalf("tau %g inf %g sus %g minutes %d scale %g: bound %g < probability %g",
							tau, f.inf, f.sus, f.dur, scale, bound, prob)
					}
				}
			}
		}
	}
}

// The reciprocal table is the division it replaces, bit for bit.
func TestReciprocalsMatchDivision(t *testing.T) {
	for i := 1; i <= 1440; i++ {
		if got, want := reciprocals[i], 1/float64(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reciprocals[%d] = %v, want %v", i, got, want)
		}
	}
}

// NewSchedule numbers each location's slots in arrival order, and its event
// order is the visits' own (minute, depart before arrive, index) order,
// renamed.
func TestScheduleSlotsInArrivalOrder(t *testing.T) {
	s := xrand.NewStream(20261016)
	for iter := 0; iter < 300; iter++ {
		offsets := []int32{0}
		var slots []Visitor
		for l := 1 + s.Intn(4); l > 0; l-- {
			slots = append(slots, randomLocationDay(s, s.Intn(80), 1+s.Intn(4), 0)...)
			offsets = append(offsets, int32(len(slots)))
		}
		given := slices.Clone(slots)
		sched, renumber := NewSchedule(slots, offsets)
		for l := range len(offsets) - 1 {
			lo, hi := offsets[l], offsets[l+1]
			var want []uint64
			original := make([]int32, hi-lo) // slot → index as given
			for i := lo; i < hi; i++ {
				want = append(want, eventKey(given[i].End, 0, int(i-lo)), eventKey(given[i].Start, arriveBit, int(i-lo)))
				if r := renumber[i]; r < lo || r >= hi {
					t.Fatalf("visit %d of location [%d, %d) renumbered to %d", i, lo, hi, r)
				}
				original[renumber[i]-lo] = i - lo
			}
			slices.Sort(want)
			next := int32(0)
			for k, key := range sched.events[2*lo : 2*hi] {
				slot := int32(uint32(key))
				if key&arriveBit != 0 {
					if slot != next {
						t.Fatalf("location %d: arrival %d is slot %d", l, next, slot)
					}
					next++
				}
				if key>>32 != want[k]>>32 || original[slot] != int32(uint32(want[k])) {
					t.Fatalf("location %d event %d: %#x (visit %d), want %#x", l, k, key, original[slot], want[k])
				}
			}
		}
	}
}

// A location-day with no slot filled and no extras returns at once: out is
// left as the location-days before it left it, with no allocation. The
// location had its slots filled, infectious among them, the day before, and
// an empty location and an empty extras slice take the same return.
func TestSimulateUnfilledLocationIsANoOp(t *testing.T) {
	s := xrand.NewStream(9)
	static, _ := NewSchedule(slices.Concat(randomLocationDay(s, 200, 3, 0), randomLocationDay(s, 200, 3, 0)),
		[]int32{0, 200, 400, 400})
	sched := static.NewDay()
	sched.NextDay()
	for slot := range int32(400) {
		sched.Fill(slot, float64(slot%3), 1)
	}
	p := Params{Day: 1, LocKey: 3, Tau: 1}
	var r Result
	sched.Simulate(0, nil, p, &r)
	sched.NextDay()
	for slot := range int32(200) {
		sched.Fill(slot, float64(slot%3), 1)
	}
	sched.Simulate(0, nil, p, &r)
	if r.Events == 0 || len(r.Infections) == 0 {
		t.Fatalf("the filled location-days did no work: %+v", r)
	}
	want := r
	want.Infections = slices.Clone(r.Infections)
	for _, loc := range []int32{1, 2} {
		for _, extras := range [][]Visitor{nil, {}} {
			if n := testing.AllocsPerRun(10, func() { sched.Simulate(loc, extras, p, &r) }); n != 0 {
				t.Errorf("location %d: %v allocations per call", loc, n)
			}
			if r.Events != want.Events || r.Interactions != want.Interactions || r.Trials != want.Trials ||
				r.ContactMinutes != want.ContactMinutes || r.SumReciprocal != want.SumReciprocal ||
				!slices.Equal(r.Infections, want.Infections) {
				t.Fatalf("location %d: Simulate moved out from %+v to %+v", loc, want, r)
			}
		}
	}
}

// BenchmarkScheduleSimulate is one day of a static schedule, about 5 % of
// visitors infectious and the rest susceptible, at the default model's
// transmissibility, in locations of a few to 80 visits with hours-long
// stays, a few co-present visitors per arrival. On a full day every slot is
// filled: a dense day, whose counters the schedule recorded. On a partial
// day every tenth slot is not, and each location counts its events in one
// pass. On an extras day every slot is filled, in mixing mode, and each
// location also receives the infectious visitors of the next one as
// replicas that nobody can infect, as the fragments of a split location
// do: it counts its events merged with the replicas', and only the
// replicas try its slots.
func BenchmarkScheduleSimulate(b *testing.B) {
	s := xrand.NewStream(1)
	const locations = 500
	offsets := []int32{0}
	var slots []Visitor
	for range locations {
		n := 2 + s.Intn(80)
		for range n {
			start, sub := int16(s.Intn(1200)), int32(s.Intn(1+n/40))
			slots = append(slots, Visitor{Person: int32(len(slots)), Sub: sub, OrigSub: sub,
				Start: start, End: min(1440, start+int16(60+s.Intn(480)))})
		}
		offsets = append(offsets, int32(len(slots)))
	}
	infectious := make([]bool, len(slots))
	for i := range infectious {
		infectious[i] = s.Float64() < 0.05
	}
	replicas := make([][]Visitor, locations)
	for l := range replicas {
		next := (l + 1) % locations
		for i := offsets[next]; i < offsets[next+1]; i++ {
			if infectious[i] {
				v := slots[i]
				v.Infectivity = 1
				replicas[l] = append(replicas[l], v)
			}
		}
	}
	static, _ := NewSchedule(slots, offsets)
	sched := static.NewDay()
	for _, c := range []struct {
		name     string
		unfilled int // every unfilled-th slot is, if positive
		mixing   float64
	}{{"full", 0, 0}, {"partial", 10, 0}, {"extras", 0, 0.3}} {
		b.Run(c.name, func(b *testing.B) {
			p := Params{Day: 1, Tau: 4.5e-5, Mixing: c.mixing}
			b.ReportAllocs()
			var r Result
			for i := 0; i < b.N; i++ {
				sched.NextDay()
				for slot, inf := range infectious {
					switch {
					case c.unfilled > 0 && slot%c.unfilled == 0:
					case inf:
						sched.Fill(int32(slot), 1, 0)
					default:
						sched.Fill(int32(slot), 0, 1)
					}
				}
				r.Reset()
				for l := range locations {
					var extras []Visitor
					if c.mixing > 0 {
						extras = replicas[l]
					}
					p.LocKey = uint64(l)
					sched.Simulate(int32(l), extras, p, &r)
				}
			}
			b.ReportMetric(float64(r.Trials), "trials/op")
			b.ReportMetric(float64(r.Interactions), "interactions/op")
		})
	}
}

func BenchmarkSimulate100Visitors(b *testing.B) {
	s := xrand.NewStream(1)
	visitors := make([]Visitor, 100)
	for i := range visitors {
		start := int16(s.Intn(1200))
		visitors[i] = Visitor{
			Person:         int32(i),
			Sub:            int32(s.Intn(4)),
			Start:          start,
			End:            start + int16(30+s.Intn(200)),
			Infectivity:    float64(i % 7 / 6), // ~1/7 infectious
			Susceptibility: float64((i + 1) % 2),
		}
	}
	p := Params{Day: 1, LocKey: 1, Tau: 0.0005}
	b.ReportAllocs()
	var r Result
	for i := 0; i < b.N; i++ {
		r.Reset()
		Simulate(visitors, p, &r)
	}
}
