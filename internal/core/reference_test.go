package core

import (
	"testing"

	"repro/internal/disease"
	"repro/internal/interventions"
	"repro/internal/synthpop"
	"repro/internal/xrand"
)

// referenceKeepVisit is keepVisit as it stood before the per-day filter
// tables — three string-keyed lookups in the effects maps per non-home
// visit — body moved here verbatim: the oracle of
// TestKeepVisitMatchesReference, and the brute force's filter in
// TestActiveDaySendsOnlyActiveVisits, which reads the effects before
// beginDay has refreshed the tables.
func referenceKeepVisit(e *Engine, p int32, hs *personState, locID int32, loc *synthpop.Location, day int) bool {
	if loc.Type == synthpop.Home {
		return true
	}
	if e.effects.Isolated(e.stateNames[hs.State]) {
		return false
	}
	eff := e.effects
	typeName := loc.Type.String()
	if eff.Closed(typeName) {
		return false
	}
	if r := eff.Reduction(typeName); r > 0 {
		if xrand.KeyedFloat64(0x4edc, e.cfg.Seed, uint64(p), uint64(locID), uint64(day)) < r {
			return false
		}
	}
	return true
}

// randomEffects draws effects in which every counter, per location type and
// per state, is at random absent, zero-valued (expired: Tick decrements
// without deleting) or in force. Reduction fractions are 0, 1 or uniform,
// and are drawn whatever their counter is; each map also carries a name no
// type or state has.
func randomEffects(s *xrand.Stream, states []string) *interventions.Effects {
	eff := interventions.NewEffects()
	counter := func(m map[string]int, key string) {
		switch s.Intn(3) {
		case 1:
			m[key] = 0
		case 2:
			m[key] = 1 + s.Intn(5)
		}
	}
	types := []string{"stadium"}
	for t := range synthpop.NumLocationTypes {
		types = append(types, t.String())
	}
	for _, name := range types {
		counter(eff.ClosedFor, name)
		counter(eff.ReduceFor, name)
		if s.Intn(4) > 0 {
			eff.ReduceFrac[name] = [...]float64{0, 1, s.Float64()}[s.Intn(3)]
		}
	}
	for _, name := range append([]string{"hospitalized"}, states...) {
		counter(eff.IsolateFor, name)
	}
	return eff
}

// TestKeepVisitMatchesReference holds the table-driven keepVisit to the
// map-driven reference: over seeded random effects, every location type ×
// disease state × treatment, on random persons, locations and days, the
// two must make the same decision. Every fourth trial expires every
// counter, leaving the fractions behind, so that nothing is in force and
// keepVisit takes its filter-free return, which must agree with the
// reference too; on every trial the filtering flag must say whether an
// effect is in force.
func TestKeepVisitMatchesReference(t *testing.T) {
	pop := testPop(t)
	e, err := New(Config{Population: pop, Disease: hotModel(), Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	var byType [synthpop.NumLocationTypes][]int32
	for l := range pop.Locations {
		lt := pop.Locations[l].Type
		byType[lt] = append(byType[lt], int32(l))
	}
	s := xrand.NewStream(41)
	var decided [2]int     // dropped, kept
	var drawDecided [2]int // the same, where a partial demand reduction drew
	var filterFree int     // trials with no effect in force
	for trial := 0; trial < 200; trial++ {
		e.effects = randomEffects(s, e.stateNames)
		if trial%4 == 3 {
			for _, m := range []map[string]int{e.effects.ClosedFor, e.effects.ReduceFor, e.effects.IsolateFor} {
				for k := range m {
					m[k] = 0
				}
			}
		}
		e.refreshFilters()
		inForce := effectInForce(e.effects, e.stateNames)
		if e.filtering != inForce {
			t.Fatalf("trial %d: filtering %v with an effect in force %v (effects %+v)", trial, e.filtering, inForce, *e.effects)
		}
		if !inForce {
			filterFree++
		}
		for lt := range synthpop.NumLocationTypes {
			if len(byType[lt]) == 0 {
				t.Fatalf("the test population has no location of type %s", lt)
			}
			typeName := lt.String()
			for st := range e.stateNames {
				for tr := range e.model.Treatments {
					hs := &personState{State: disease.StateID(st), Treatment: disease.TreatmentID(tr)}
					for range 20 {
						p := int32(s.Intn(pop.NumPersons()))
						locID := byType[lt][s.Intn(len(byType[lt]))]
						day := 1 + s.Intn(365)
						got := e.keepVisit(p, hs, locID, day)
						if want := referenceKeepVisit(e, p, hs, locID, &pop.Locations[locID], day); got != want {
							t.Fatalf("trial %d: type %s, state %s, treatment %d, person %d, location %d, day %d: keepVisit %v, reference %v (effects %+v)",
								trial, typeName, e.stateNames[st], tr, p, locID, day, got, want, *e.effects)
						}
						k := 0
						if got {
							k = 1
						}
						decided[k]++
						if r := e.effects.Reduction(typeName); lt != synthpop.Home && r > 0 && r < 1 &&
							!e.effects.Isolated(e.stateNames[st]) && !e.effects.Closed(typeName) {
							drawDecided[k]++
						}
					}
				}
			}
		}
	}
	if min(decided[0], decided[1], drawDecided[0], drawDecided[1], filterFree) == 0 {
		t.Fatalf("decisions (dropped, kept) %v, of them by a demand-reduction draw %v, filter-free trials %d: a case was never exercised",
			decided, drawDecided, filterFree)
	}
}

// hazardCases counts what referenceEventHazards met, so that its oracle can
// require every case to have been reached.
type hazardCases struct {
	sameRoom, otherRoom    int // source and eligible visit by another person, in one room or two
	before, after          int // same-room pairs that miss: the member left at or before the source arrived, or arrived at or after it left
	touching, edge         int // same-room pairs that meet at a minute; overlap by one minute, the member arriving the minute after the source's arrival less its room's longest visit
	selfSame, selfOther    int // source and eligible visit by one person, in one room or two
	twiceSame, twiceOther  int // a person exposed twice at one location, in one room or two
	dropped, treated, nsus int // eligible by susceptibility but not kept; exposed under a treatment; sus ≤ 0
}

// referenceEventHazards is the event kernel's hazard loop as it stood
// before the room index — every susceptible visit of an active location
// against every source there — body kept verbatim apart from the case
// counts, the rooms' longest visits the edge case needs, and the float64
// conversions that round each product before its sum, as the kernel does,
// so that no target fuses them: the oracle of TestEventHazardsMatchAllPairs.
func referenceEventHazards(e *Engine, day int, cases *hazardCases) int64 {
	tau := e.model.Transmissibility
	var interactions int64
	for _, locID := range e.activeLocList {
		sv := e.srcVisits[locID]
		e.srcVisits[locID] = sv[:0]
		exposedAt := map[int32]int32{} // person → sublocation of its last exposed visit here
		longest := map[int32]int16{}   // sublocation → its longest visit here
		for _, v := range e.locVisits[e.locOffsets[locID]:e.locOffsets[locID+1]] {
			longest[v.Sub] = max(longest[v.Sub], v.End-v.Start)
		}
		for _, v := range e.locVisits[e.locOffsets[locID]:e.locOffsets[locID+1]] {
			p := v.Person
			hs := &e.health[p]
			sus := e.model.Susceptibility(hs.State, hs.Treatment)
			if sus <= 0 {
				cases.nsus++
				continue
			}
			if !e.keepVisit(p, hs, locID, day) {
				cases.dropped++
				continue
			}
			var h float64
			for i := range sv {
				s := &sv[i]
				if s.person == p || s.sub != v.Sub {
					switch {
					case s.person == p && s.sub == v.Sub:
						cases.selfSame++
					case s.person == p:
						cases.selfOther++
					default:
						cases.otherRoom++
					}
					continue
				}
				cases.sameRoom++
				start := v.Start
				if s.start > start {
					start = s.start
				}
				end := v.End
				if s.end < end {
					end = s.end
				}
				if end <= start {
					if end == start {
						cases.touching++
					}
					if v.End <= s.start {
						cases.before++
					} else {
						cases.after++
					}
					continue
				}
				if end-start == 1 && v.Start == s.start-longest[v.Sub]+1 {
					cases.edge++
				}
				h += float64(s.inf * float64(end-start))
				interactions++
			}
			if h > 0 {
				if sub, ok := exposedAt[p]; ok && sub == v.Sub {
					cases.twiceSame++
				} else if ok {
					cases.twiceOther++
				}
				exposedAt[p] = v.Sub
				if hs.Treatment != 0 {
					cases.treated++
				}
				e.exposedBits[p>>6] |= 1 << (p & 63)
				e.lambda[p] += float64(tau * sus * h)
			}
		}
	}
	return interactions
}
