package core

import (
	"slices"
	"testing"

	"repro/internal/charm"
	"repro/internal/disease"
	"repro/internal/interventions"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// testPop builds a small but epidemic-capable population.
func testPop(t testing.TB) *synthpop.Population {
	t.Helper()
	pop := synthpop.Generate(synthpop.DefaultConfig("core-test", 3000, 700, 11))
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

// hotModel returns a disease model with transmissibility high enough that
// a short run infects a meaningful fraction.
func hotModel() *disease.Model {
	m := disease.Default()
	m.Transmissibility = 4e-4
	return m
}

func run(t testing.TB, cfg Config) *Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEpidemicSpreads(t *testing.T) {
	pop := testPop(t)
	res := run(t, Config{
		Population: pop, Disease: hotModel(),
		Days: 40, Seed: 1, InitialInfections: 5, Ranks: 4,
	})
	if res.TotalInfections < 50 {
		t.Fatalf("epidemic did not spread: %d infections", res.TotalInfections)
	}
	if res.AttackRate <= 0 || res.AttackRate > 1 {
		t.Fatalf("attack rate %v out of range", res.AttackRate)
	}
	// Counts must sum to the population every day.
	for _, d := range res.Days {
		var sum int64
		for _, c := range d.Counts {
			sum += c
		}
		if sum != int64(pop.NumPersons()) {
			t.Fatalf("day %d counts sum to %d, want %d", d.Day, sum, pop.NumPersons())
		}
	}
}

func TestEpidemicEventuallyRecovers(t *testing.T) {
	pop := testPop(t)
	res := run(t, Config{
		Population: pop, Disease: hotModel(),
		Days: 150, Seed: 3, InitialInfections: 10, Ranks: 2,
	})
	last := res.Days[len(res.Days)-1]
	// After 150 days the infectious compartments must be (nearly) empty.
	active := last.Counts["latent"] + last.Counts["infectious"] +
		last.Counts["symptomatic"] + last.Counts["asymptomatic"]
	if active > int64(pop.NumPersons()/100) {
		t.Fatalf("epidemic still raging after 150 days: %d active", active)
	}
	if last.Counts["recovered"] == 0 {
		t.Fatal("nobody recovered")
	}
}

// epiSignature compresses a result into a comparable trajectory.
func epiSignature(res *Result) []int64 {
	var sig []int64
	for _, d := range res.Days {
		sig = append(sig, d.NewInfections, d.Counts["recovered"], d.Counts["susceptible"])
	}
	return sig
}

func sameSignature(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPartitionInvariance(t *testing.T) {
	// The paper's RR vs GP comparison is only meaningful because the
	// epidemic itself does not depend on data distribution. Verify the
	// trajectory is bit-identical across rank counts, chare factors and
	// arbitrary rank assignments.
	pop := testPop(t)
	base := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 25, Seed: 7, InitialInfections: 5, Ranks: 1})
	sig := epiSignature(base)

	variants := []Config{
		{Ranks: 3},
		{Ranks: 16},
		{Ranks: 4, ChareFactor: 4},
		{Ranks: 4, AggBufferSize: 32},
		{Ranks: 5, SyncMode: charm.QuiescenceDetection},
	}
	// A deliberately lopsided custom distribution.
	personRank := make([]int32, pop.NumPersons())
	locRank := make([]int32, pop.NumLocations())
	for i := range personRank {
		personRank[i] = int32((i * i) % 7)
	}
	for i := range locRank {
		locRank[i] = int32((i / 3) % 7)
	}
	variants = append(variants, Config{Ranks: 7, PersonRank: personRank, LocationRank: locRank})

	for i, v := range variants {
		v.Population = pop
		v.Disease = hotModel()
		v.Days = 25
		v.Seed = 7
		v.InitialInfections = 5
		res := run(t, v)
		if !sameSignature(sig, epiSignature(res)) {
			t.Fatalf("variant %d (%+v ranks=%d) changed the epidemic", i, v.SyncMode, v.Ranks)
		}
	}
}

func TestSplitLocInvariance(t *testing.T) {
	// splitLoc must not change the epidemic: the keyed randomness uses
	// original location ids and sublocations (Section III-C correctness).
	pop := testPop(t)
	split, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSplit == 0 {
		t.Skip("no locations heavy enough to split in this population")
	}
	a := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 25, Seed: 9, InitialInfections: 5, Ranks: 4})
	b := run(t, Config{Population: split, Disease: hotModel(),
		Days: 25, Seed: 9, InitialInfections: 5, Ranks: 4})
	if !sameSignature(epiSignature(a), epiSignature(b)) {
		t.Fatal("splitLoc changed the epidemic trajectory")
	}
}

func TestParallelSequentialEquivalence(t *testing.T) {
	pop := testPop(t)
	// Mixing on a split population replicates infectious visitors into
	// sibling fragments, so a PM's message slab outgrows its static visit
	// count and an LM's extras lists (replicas, which have no slot of their
	// own) grow in the middle of a phase, while receivers on other
	// goroutines still read what was sent from them.
	split, st, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSplit == 0 {
		t.Fatal("nothing split")
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Population: pop}},
		{"mixing on a split population", Config{Population: split, Mixing: 0.3}},
	} {
		cfg := c.cfg
		cfg.Disease, cfg.Days, cfg.Seed, cfg.InitialInfections, cfg.Ranks = hotModel(), 15, 13, 5, 4
		seq := run(t, cfg)
		cfg.Parallel = true
		par := run(t, cfg)
		if !sameSignature(epiSignature(seq), epiSignature(par)) {
			t.Fatalf("%s: parallel execution changed the epidemic", c.name)
		}
		if seq.Days[5].PersonPhase.Messages != par.Days[5].PersonPhase.Messages {
			t.Fatalf("%s: message counts differ between modes", c.name)
		}
	}
}

func TestAggregationOnlyAffectsWire(t *testing.T) {
	pop := testPop(t)
	off := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 8, Seed: 17, InitialInfections: 5, Ranks: 6})
	on := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 8, Seed: 17, InitialInfections: 5, Ranks: 6, AggBufferSize: 64})
	if !sameSignature(epiSignature(off), epiSignature(on)) {
		t.Fatal("aggregation changed the epidemic")
	}
	d := 4
	if on.Days[d].PersonPhase.WireMessages >= off.Days[d].PersonPhase.WireMessages {
		t.Fatalf("aggregation did not reduce wire messages: %d vs %d",
			on.Days[d].PersonPhase.WireMessages, off.Days[d].PersonPhase.WireMessages)
	}
	if on.Days[d].PersonPhase.Messages != off.Days[d].PersonPhase.Messages {
		t.Fatal("aggregation changed chare-level message count")
	}
}

func TestVisitMessageVolumeMatchesSchedules(t *testing.T) {
	pop := testPop(t)
	res := run(t, Config{Population: pop, Disease: disease.Default(),
		Days: 1, Seed: 19, InitialInfections: 1, Ranks: 3})
	got := res.Days[0].PersonPhase.Messages
	if got != int64(pop.NumVisits()) {
		t.Fatalf("day 1 visit messages = %d, want %d (no interventions active)", got, pop.NumVisits())
	}
	if res.Days[0].Events != 2*int64(pop.NumVisits()) {
		t.Fatalf("events = %d, want %d", res.Days[0].Events, 2*pop.NumVisits())
	}
}

func TestSchoolClosureReducesInfections(t *testing.T) {
	pop := testPop(t)
	baseline := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 50, Seed: 21, InitialInfections: 5, Ranks: 2})

	scn, err := interventions.Parse(`
when day >= 3 {
    close school for 45
    close shop for 45
    close other for 45
    reduce work visits by 0.5 for 45
}`)
	if err != nil {
		t.Fatal(err)
	}
	mitigated := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 50, Seed: 21, InitialInfections: 5, Ranks: 2, Scenario: scn})
	if mitigated.TotalInfections >= baseline.TotalInfections {
		t.Fatalf("closures did not help: %d vs %d",
			mitigated.TotalInfections, baseline.TotalInfections)
	}
	// Visit volume must visibly drop.
	if mitigated.Days[10].PersonPhase.Messages >= baseline.Days[10].PersonPhase.Messages {
		t.Fatal("closures did not reduce visit messages")
	}
}

func TestVaccinationReducesInfections(t *testing.T) {
	pop := testPop(t)
	baseline := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 50, Seed: 23, InitialInfections: 5, Ranks: 2})
	scn, err := interventions.Parse("when day >= 2 { vaccinate 0.8 of people }")
	if err != nil {
		t.Fatal(err)
	}
	vax := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 50, Seed: 23, InitialInfections: 5, Ranks: 2, Scenario: scn})
	if vax.TotalInfections >= baseline.TotalInfections {
		t.Fatalf("vaccination did not help: %d vs %d", vax.TotalInfections, baseline.TotalInfections)
	}
}

func TestConfigValidation(t *testing.T) {
	pop := testPop(t)
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil population accepted")
	}
	if _, err := New(Config{Population: pop, PersonRank: make([]int32, 3)}); err == nil {
		t.Fatal("short PersonRank accepted")
	}
	bad := make([]int32, pop.NumPersons())
	bad[0] = 99
	if _, err := New(Config{Population: pop, Ranks: 2, PersonRank: bad}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	badL := make([]int32, pop.NumLocations())
	badL[0] = -1
	if _, err := New(Config{Population: pop, Ranks: 2, LocationRank: badL}); err == nil {
		t.Fatal("negative location rank accepted")
	}
	if _, err := New(Config{Population: pop, Ranks: 4, Route2D: true}); err == nil {
		t.Fatal("2D routing without aggregation accepted")
	}
	// The static schedule's counting passes index by minute and
	// sublocation: a visit outside the day or its location's rooms is an
	// error, not an index out of range.
	for name, corrupt := range map[string]func(v *synthpop.Visit){
		"inverted interval": func(v *synthpop.Visit) { v.Start, v.End = v.End, v.Start },
		"past midnight":     func(v *synthpop.Visit) { v.End = 24*60 + 1 },
		"sublocation":       func(v *synthpop.Visit) { v.Sub = pop.Locations[v.Loc].NumSub },
	} {
		bad := *pop
		bad.Visits = slices.Clone(pop.Visits)
		corrupt(&bad.Visits[len(bad.Visits)/2])
		if _, err := New(Config{Population: &bad, Kernel: KernelAuto}); err == nil {
			t.Fatalf("population with a visit of bad %s accepted", name)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	pop := testPop(t)
	e, err := New(Config{Population: pop})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Days != 120 || e.cfg.Ranks != 1 || e.cfg.ChareFactor != 1 {
		t.Fatalf("defaults wrong: %+v", e.cfg)
	}
	if e.cfg.InitialInfections < 1 {
		t.Fatal("no index cases by default")
	}
}

func TestNewInfectionsMatchCurve(t *testing.T) {
	pop := testPop(t)
	res := run(t, Config{Population: pop, Disease: hotModel(),
		Days: 30, Seed: 29, InitialInfections: 5, Ranks: 3})
	var curve int64
	for _, n := range res.EpiCurve() {
		curve += n
	}
	// Total = seeded + daily new infections.
	seeded := res.TotalInfections - curve
	if seeded < 1 || seeded > 20 {
		t.Fatalf("implied seeds = %d, want ≈5", seeded)
	}
}

func BenchmarkEngineDay(b *testing.B) {
	pop := synthpop.Generate(synthpop.DefaultConfig("bench", 20000, 5000, 1))
	e, err := New(Config{Population: pop, Disease: hotModel(),
		Days: 1000000, Seed: 1, InitialInfections: 20, Ranks: 8, AggBufferSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runDay(i + 1)
	}
}
