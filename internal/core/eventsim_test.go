package core

import (
	"math"
	"testing"

	"repro/internal/interventions"
	"repro/internal/synthpop"
)

// twinVisitPop is testPop with second visits: every fifth person returns to
// the location of one of their non-home visits, every tenth into the same
// room for an overlapping stretch and the others into another room of it
// where it has one, and every seventh arrives in their own room the minute
// they leave it.
func twinVisitPop(t *testing.T) *synthpop.Population {
	t.Helper()
	base := testPop(t)
	pop := &synthpop.Population{Name: "twin-visits", Persons: base.Persons, Locations: base.Locations,
		PersonVisitOffsets: make([]int32, 1, base.NumPersons()+1)}
	for p := range int32(base.NumPersons()) {
		visits := base.PersonVisits(p)
		pop.Visits = append(pop.Visits, visits...)
		for _, v := range visits {
			loc := base.Locations[v.Loc]
			if loc.Type == synthpop.Home {
				continue
			}
			if p%5 == 0 {
				w := v
				if p%10 != 0 && loc.NumSub > 1 {
					w.Sub = (v.Sub + 1) % loc.NumSub
				} else {
					w.Start, w.End = v.Start+(v.End-v.Start)/2, min(v.End+60, 24*60)
				}
				pop.Visits = append(pop.Visits, w)
			}
			if p%7 == 0 && v.End+30 <= 24*60 {
				w := v
				w.Start, w.End = v.End, v.End+30
				pop.Visits = append(pop.Visits, w)
			}
			break
		}
		pop.PersonVisitOffsets = append(pop.PersonVisitOffsets, int32(len(pop.Visits)))
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

// TestEventHazardsMatchAllPairs holds the event kernel's room-indexed hazard
// loop to the all-pairs loop it replaced (referenceEventHazards): two
// engines of one configuration run every day on the event kernel, one with
// each loop, and must agree bit for bit on every person's lambda and the
// exposed set after the loop, and on the day's Interactions, Trials,
// NewInfections and state counts. The inputs reach multi-room locations,
// persons with two visits at one location in one room or two, same-room
// intervals that touch or miss, visits isolation, closures and demand
// reduction drop, vaccinated susceptibility, and an infectious state that
// is susceptible too, so that a source meets its own visits; the case
// counts must show each reached.
func TestEventHazardsMatchAllPairs(t *testing.T) {
	pop := twinVisitPop(t)
	m := hotModel()
	asymp, ok := m.StateByName("asymptomatic")
	if !ok {
		t.Fatal("no asymptomatic state")
	}
	m.States[asymp].Susceptibility = 0.5
	filters := `when day >= 3 {
    vaccinate 0.3 of people
    isolate symptomatic for 8
    close school for 5
    reduce work visits by 0.5 for 8
    reduce shop visits by 0.3 for 8
}`
	var cases hazardCases
	var exposed, infected int64
	for _, c := range []struct {
		seed     uint64
		ranks    int
		scenario string
	}{{71, 6, ""}, {72, 3, filters}, {73, 1, filters}} {
		engines := [2]*Engine{}
		for k := range engines {
			cfg := Config{Population: pop, Disease: m, Days: 20, Seed: c.seed, InitialInfections: 8,
				Ranks: c.ranks, Kernel: KernelEvent, KernelThreshold: 1}
			if c.scenario != "" {
				sc, err := interventions.Parse(c.scenario)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Scenario = sc
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engines[k] = e
		}
		var lambda [2][]float64
		var bits [2][]uint64
		snapshot := func(k int, hazards func(e *Engine, day int) int64) func(e *Engine, day int) int64 {
			return func(e *Engine, day int) int64 {
				n := hazards(e, day)
				lambda[k], bits[k] = append(lambda[k][:0], e.lambda...), append(bits[k][:0], e.exposedBits...)
				return n
			}
		}
		kernel := snapshot(0, (*Engine).eventHazards)
		reference := snapshot(1, func(e *Engine, day int) int64 { return referenceEventHazards(e, day, &cases) })
		for day := 1; day <= 20; day++ {
			got, want := engines[0].eventDay(day, kernel), engines[1].eventDay(day, reference)
			for p := range lambda[1] {
				if math.Float64bits(lambda[0][p]) != math.Float64bits(lambda[1][p]) {
					t.Fatalf("seed %d, day %d: person %d's lambda %v, all-pairs %v", c.seed, day, p, lambda[0][p], lambda[1][p])
				}
			}
			for w := range bits[1] {
				if bits[0][w] != bits[1][w] {
					t.Fatalf("seed %d, day %d: exposed word %d is %#x, all-pairs %#x", c.seed, day, w, bits[0][w], bits[1][w])
				}
			}
			if got.Interactions != want.Interactions || got.Trials != want.Trials ||
				got.NewInfections != want.NewInfections || !equalCounts(got.Counts, want.Counts) {
				t.Fatalf("seed %d, day %d: interactions/trials/infections %d/%d/%d counts %v, all-pairs %d/%d/%d counts %v",
					c.seed, day, got.Interactions, got.Trials, got.NewInfections, got.Counts,
					want.Interactions, want.Trials, want.NewInfections, want.Counts)
			}
			exposed += got.Trials
			infected += got.NewInfections
		}
	}
	t.Logf("cases %+v; %d exposed, %d infected", cases, exposed, infected)
	for name, n := range map[string]int{
		"same-room pairs": cases.sameRoom, "pairs in two rooms": cases.otherRoom,
		"touching pairs": cases.touching, "pairs the member left before": cases.before,
		"pairs the member arrived after": cases.after, "pairs at the window's edge": cases.edge,
		"own visits in one room": cases.selfSame, "own visits in two rooms": cases.selfOther,
		"twice exposed in one room": cases.twiceSame, "twice exposed in two rooms": cases.twiceOther,
		"visits filters dropped": cases.dropped, "treated exposed": cases.treated, "unsusceptible visits": cases.nsus,
	} {
		if n < 5 {
			t.Errorf("%s: reached %d times, want at least 5", name, n)
		}
	}
	if exposed < 1000 || infected < 100 {
		t.Errorf("%d exposed, %d infected: the runs did too little to compare", exposed, infected)
	}
}

func equalCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// The fast reject may never reject a draw the logarithm accepts: over a log
// grid of hazards from the smallest subnormal to 50, and draws within 64
// ulps of each one's bound, no u ≥ exposureBound(lam) has -math.Log1p(-u) <
// lam, nor would the worst logarithm the bound's argument admits accept it:
// one ulp below u, since -log1p(-u) ≥ u and math.Log1p errs by under one
// ulp. Without its relative margin the bound fails that at u = lam for lam
// above 2⁻⁷; without its absolute one, at subnormal lam.
func TestExposureBoundCoversLog1p(t *testing.T) {
	lams := []float64{50}
	for lam := math.SmallestNonzeroFloat64; lam < 50; lam = max(lam*1.01, math.Nextafter(lam, 50)) {
		lams = append(lams, lam)
	}
	checked := 0
	for _, lam := range lams {
		bound := exposureBound(lam)
		for k := int64(-64); k <= 64; k++ {
			u := math.Float64frombits(uint64(int64(math.Float64bits(bound)) + k))
			if !(u >= 0 && u < 1) || u < bound {
				continue
			}
			checked++
			if l, worst := -math.Log1p(-u), math.Nextafter(u, 0); l < lam || worst < lam {
				t.Fatalf("lam %g: u %g ≥ bound %g, but -log1p(-u) = %g or the worst logarithm's %g accepts it",
					lam, u, bound, l, worst)
			}
		}
	}
	if checked < 100000 {
		t.Fatalf("only %d draws at or above a bound: the grid misses", checked)
	}
}
