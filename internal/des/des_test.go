package des

import (
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
