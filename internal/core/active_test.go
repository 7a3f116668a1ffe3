package core

import (
	"testing"

	"repro/internal/splitloc"
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
					if !e.keepVisit(int32(p), hs, v.Loc, &split.Locations[v.Loc], day) {
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
				if !e.keepVisit(v.Person, hs, v.Loc, &split.Locations[v.Loc], day) {
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
					if p := e.sched.Visit(r.slot).Person; seen[r.slot] || r.person != p || e.pmOf[p] != int32(pm) {
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
