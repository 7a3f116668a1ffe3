package core

import (
	"testing"

	"repro/internal/interventions"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// TestActiveDaySendsOnlyActiveVisits is the oracle of the active day's
// person phase, counted by brute force over every visit of the population:
// its messages must be exactly the kept visits to locations reachable from
// the infectious frontier plus their mixing replicas, and the PMs' slot
// lists for the day must hold every slot of an active location once and no
// other. Closures, demand reduction and isolation are set on the engine's
// effects directly (no scenario), so they hold unchanged from before a day
// runs to its person phase.
func TestActiveDaySendsOnlyActiveVisits(t *testing.T) {
	split, st, err := splitloc.SplitPopulation(testPop(t), splitloc.Options{MaxPartitions: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSplit == 0 {
		t.Fatal("nothing split: no mixing replicas to count")
	}
	family := make(map[int32][]int32)
	for l, loc := range split.Locations {
		family[loc.Origin] = append(family[loc.Origin], int32(l))
	}
	for _, mixing := range []float64{0, 0.3} {
		e, err := New(Config{Population: split, Disease: hotModel(), Days: 12, Seed: 19,
			InitialInfections: 2, Ranks: 4, ChareFactor: 2, AggBufferSize: 16,
			Kernel: KernelAuto, Mixing: mixing})
		if err != nil {
			t.Fatal(err)
		}
		e.effects.ClosedFor["school"] = 100
		e.effects.ReduceFrac["work"], e.effects.ReduceFor["work"] = 0.4, 100
		e.effects.IsolateFor["symptomatic"] = 100

		activeDays := 0
		for day := 1; day <= e.cfg.Days; day++ {
			// The brute force, from this morning's health states.
			active := make([]bool, split.NumLocations())
			for p := range e.health {
				hs := &e.health[p]
				if e.model.Infectivity(hs.State, hs.Treatment) <= 0 {
					continue
				}
				for _, v := range split.PersonVisits(int32(p)) {
					if !referenceKeepVisit(e, int32(p), hs, v.Loc, &split.Locations[v.Loc], day) {
						continue
					}
					active[v.Loc] = true
					if mixing > 0 {
						for _, l := range family[split.Locations[v.Loc].Origin] {
							active[l] = true
						}
					}
				}
			}
			var want, activeSlots int64
			for _, v := range split.Visits {
				if !active[v.Loc] {
					continue
				}
				activeSlots++
				hs := &e.health[v.Person]
				if !referenceKeepVisit(e, v.Person, hs, v.Loc, &split.Locations[v.Loc], day) {
					continue
				}
				want++
				if mixing > 0 && e.model.Infectivity(hs.State, hs.Treatment) > 0 {
					want += int64(len(family[split.Locations[v.Loc].Origin]) - 1)
				}
			}

			rep := e.RunDay(day)
			if rep.Kernel != kernelActive || want == 0 {
				continue
			}
			activeDays++
			if rep.PersonPhase.Messages != want {
				t.Errorf("mixing %g day %d: person phase sent %d visit messages, brute force counts %d",
					mixing, day, rep.PersonPhase.Messages, want)
			}
			seen := make([]bool, len(split.Visits))
			var listed int64
			for pm, slots := range e.activeSlots {
				for _, r := range slots {
					if !active[r.loc] || r.slot < e.locOffsets[r.loc] || r.slot >= e.locOffsets[r.loc+1] {
						t.Fatalf("mixing %g day %d: PM %d lists slot %d of location %d, which is not active today",
							mixing, day, pm, r.slot, r.loc)
					}
					if p := e.sched.Visit(r.slot).Person; seen[r.slot] || r.person != p || e.plan.pmOf[p] != int32(pm) {
						t.Fatalf("mixing %g day %d: slot %d listed twice, with person %d, or by PM %d, not its visitor's",
							mixing, day, r.slot, r.person, pm)
					}
					seen[r.slot] = true
					listed++
				}
			}
			if listed != activeSlots {
				t.Errorf("mixing %g day %d: PMs list %d slots, active locations hold %d", mixing, day, listed, activeSlots)
			}
		}
		if activeDays < 3 {
			t.Fatalf("mixing %g: only %d active days sent visits", mixing, activeDays)
		}
	}
}

// TestFilteringFollowsScenario runs a scenario whose filters switch on and
// off — schools closed on day 2 for two days, symptomatic persons isolated
// on day 3 for one, work demand halved on day 5 for two — on the dense and
// auto kernels. Each day the filtering flag must be set exactly when an
// effect is in force, and the DES must see every kept visit and no other:
// Events is twice the slots referenceKeepVisit keeps, at every location on
// a dense day and at the locations reachable from the frontier on an active
// one. The reference reads a second copy of the scenario's effects, stepped
// and ticked around each day as the engine's are.
func TestFilteringFollowsScenario(t *testing.T) {
	const src = `
when day >= 2 { close school for 2 }
when day >= 3 { isolate symptomatic for 1 }
when day >= 5 { reduce work visits by 0.5 for 2 }
`
	pop := testPop(t)
	for _, kernel := range []string{KernelDense, KernelAuto} {
		e, err := New(Config{Population: pop, Disease: hotModel(), Days: 8, Seed: 23,
			InitialInfections: 5, Ranks: 4, ChareFactor: 2, AggBufferSize: 16,
			Kernel: kernel, Scenario: parseScenario(t, src)})
		if err != nil {
			t.Fatal(err)
		}
		mirror := parseScenario(t, src)
		ref := &Engine{cfg: e.cfg, effects: interventions.NewEffects(), stateNames: e.stateNames}
		var filtered, filterFree, stepped int
		for day := 1; day <= e.cfg.Days; day++ {
			mirror.Step(interventions.Env{Day: day, Population: pop.NumPersons()}, ref.effects)
			inForce := effectInForce(ref.effects, e.stateNames)
			// The frontier and the kept slots, from this morning's health.
			active := make([]bool, pop.NumLocations())
			for p := range e.health {
				hs := &e.health[p]
				if e.model.Infectivity(hs.State, hs.Treatment) <= 0 {
					continue
				}
				for _, v := range pop.PersonVisits(int32(p)) {
					if referenceKeepVisit(ref, int32(p), hs, v.Loc, &pop.Locations[v.Loc], day) {
						active[v.Loc] = true
					}
				}
			}
			var kept, keptActive int64
			for _, v := range pop.Visits {
				if referenceKeepVisit(ref, v.Person, &e.health[v.Person], v.Loc, &pop.Locations[v.Loc], day) {
					kept++
					if active[v.Loc] {
						keptActive++
					}
				}
			}

			rep := e.RunDay(day)
			ref.effects.Tick()
			if e.filtering != inForce {
				t.Errorf("%s day %d: filtering %v with an effect in force %v", kernel, day, e.filtering, inForce)
			}
			if inForce {
				filtered++
			} else {
				filterFree++
			}
			want := kept
			if rep.Kernel == kernelActive {
				want = keptActive
				stepped++
			}
			if rep.Events != 2*want {
				t.Errorf("%s day %d (%s): %d DES events, want twice the %d kept slots", kernel, day, rep.Kernel, rep.Events, want)
			}
		}
		if filtered < 2 || filterFree < 2 || kernel == KernelAuto && stepped < 3 {
			t.Fatalf("%s: %d filtered and %d filter-free days, %d active: a case was never exercised",
				kernel, filtered, filterFree, stepped)
		}
	}
}

// effectInForce reports whether eff isolates any of states or closes or
// reduces visits to any location type.
func effectInForce(eff *interventions.Effects, states []string) bool {
	for _, name := range states {
		if eff.Isolated(name) {
			return true
		}
	}
	for lt := range synthpop.NumLocationTypes {
		if eff.Closed(lt.String()) || eff.Reduction(lt.String()) > 0 {
			return true
		}
	}
	return false
}
