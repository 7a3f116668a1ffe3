package core

import (
	"repro/internal/charm"
	"repro/internal/synthpop"
	"repro/internal/xrand"
)

// Active-set day stepping (Config.Kernel "auto"): instead of
// broadcasting every phase to every manager, the engine walks the
// infectious frontier, marks the locations it can reach through kept
// visits, and targets only the managers owning active work. Because
// every stochastic draw is keyed by content, skipping a person or
// location whose work prices to zero cannot perturb any other draw —
// the trajectory (new infections, state counts, attack rate) stays
// byte-identical to the dense kernel; only the phase statistics reflect
// the reduced message and DES volume.
//
// The byte-identity argument, in full:
//
//   - an infection can only originate at a location visited by at least
//     one effectively infectious person whose visit survived the
//     behavioral filters (the DES requires src.Infectivity > 0);
//   - the frontier walk evaluates exactly those filters with exactly the
//     keyed draws the dense person phase makes, so the marked set is
//     precisely the set of locations where dense could transmit;
//   - every static visitor of a marked location re-evaluates its own
//     schedule through the same shared filter, so marked locations
//     receive exactly the dense kernel's kept-visit multiset, and the
//     per-location DES output is arrival-order-insensitive;
//   - unmarked locations receive nothing and would have produced no
//     infections; and
//   - phase 3 resolves the same infect-message multiset in the same
//     canonical order and progresses the same set of persons (only
//     persons with DaysLeft >= 0 can change state without an exposure).

// keepVisit evaluates the behavioral filters (isolation, closures,
// demand reduction) for one visit, making exactly the keyed draws the
// dense person phase makes. Shared by the dense and active person
// phases, the frontier walk and the event kernel, so the four can never
// disagree about which visits happen.
func (e *Engine) keepVisit(p int32, isolated bool, locID int32, loc *synthpop.Location, day int) bool {
	if loc.Type == synthpop.Home {
		return true
	}
	if isolated {
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

// beginSparseDay opens a day of the active-set and event kernels: the
// scenario step every kernel shares, then the lazily allocated active-set
// scratch and inverted static schedule (visit indices grouped by
// location), so purely dense runs pay nothing for them.
func (e *Engine) beginSparseDay(day int) {
	e.stepScenario(day)
	if e.activeLoc == nil {
		e.activeLoc = make([]bool, e.pop.NumLocations())
		e.personMark = make([]bool, e.pop.NumPersons())
		e.activePersons = make([][]int32, len(e.pmHealth))
		e.lmNeeded = make([]bool, e.rt.ArrayLen(e.lmArr))
		e.visitIndex()
	}
}

// endSparseDay closes such a day: state counts from the incremental
// counters, the per-day marks reset in O(active) time, timed
// interventions ticked.
func (e *Engine) endSparseDay(rep *DayReport) {
	rep.Counts = e.stateCounts64()
	for _, locID := range e.activeLocList {
		e.activeLoc[locID] = false
	}
	e.activeLocList = e.activeLocList[:0]
	for pmID := range e.activePersons {
		for _, p := range e.activePersons[pmID] {
			e.personMark[p] = false
		}
		e.activePersons[pmID] = e.activePersons[pmID][:0]
	}
	e.effects.Tick()
}

// markActive records one location as reachable from the frontier today.
func (e *Engine) markActive(locID int32) {
	if e.activeLoc[locID] {
		return
	}
	e.activeLoc[locID] = true
	e.activeLocList = append(e.activeLocList, locID)
}

// walkFrontier is the sparse kernels' one walk of the effectively
// infectious frontier — each PM's infectious set, in set order — marking
// every location one of its kept visits reaches and handing each kept
// visit, with its person's infectivity, to visit (which may be nil). In
// mixing mode a marked location activates its whole fragment family,
// because dense replicates infectious visitors across sibling fragments
// (Figure 6(b)).
func (e *Engine) walkFrontier(day int, visit func(v *synthpop.Visit, inf float64)) {
	for pmID := range e.pmHealth {
		for _, p := range e.pmHealth[pmID].infectious {
			hs := &e.health[p]
			inf := e.model.Infectivity(hs.State, hs.Treatment)
			if inf <= 0 {
				continue
			}
			isolated := e.effects.Isolated(e.stateNames[hs.State])
			visits := e.pop.PersonVisits(p)
			for i := range visits {
				v := &visits[i]
				loc := &e.pop.Locations[v.Loc]
				if !e.keepVisit(p, isolated, v.Loc, loc, day) {
					continue
				}
				e.markActive(v.Loc)
				if e.cfg.Mixing > 0 {
					for _, frag := range e.fragments[loc.Origin] {
						e.markActive(frag)
					}
				}
				if visit != nil {
					visit(v, inf)
				}
			}
		}
	}
}

// progressSparse advances the dwell clocks of pm's progressing set — the
// only persons whose state can change without a new exposure.
// transitionPerson may swap-remove the person under the cursor; the slot
// is then re-examined instead of advanced past. Today's fresh infections
// must already be in the set, so they receive their same-day dwell
// decrement exactly as the dense kernel's full scan gives them.
func (e *Engine) progressSparse(pm int32, day int) {
	h := &e.pmHealth[pm]
	for i := 0; i < len(h.progressing); {
		p := h.progressing[i]
		e.progressPerson(p, day)
		if i < len(h.progressing) && h.progressing[i] == p {
			i++
		}
	}
}

// runDayActive executes one day of the active-set stepper. Days with an
// empty frontier skip phases 1 and 2 entirely (no location can
// transmit); phase 3 runs only on managers holding buffered infections
// or progressing persons, so a fully quiescent day costs O(managers).
func (e *Engine) runDayActive(day int) DayReport {
	rep := DayReport{Day: day, Kernel: kernelActive}
	e.beginSparseDay(day)

	e.walkFrontier(day, nil)
	if len(e.activeLocList) > 0 {
		e.beginLocationDay()
		// Active person set: every static visitor of an active location,
		// deduped and bucketed per PM. Their order is not observable: the
		// DES walks slots in static order, and infections are re-sorted
		// canonically.
		for _, locID := range e.activeLocList {
			for _, vi := range e.visitsAt(locID) {
				p := e.pop.Visits[vi].Person
				if e.personMark[p] {
					continue
				}
				e.personMark[p] = true
				pmID := e.pmOf[p]
				e.activePersons[pmID] = append(e.activePersons[pmID], p)
			}
		}

		// Phase 1: person phase, targeted at PMs owning active persons.
		for pmID := range e.activePersons {
			if len(e.activePersons[pmID]) == 0 {
				continue
			}
			e.rt.Send(charm.ChareRef{Array: e.pmArr, Index: int32(pmID)}, msgComputeVisitsActive{Day: day})
		}
		rep.PersonPhase = e.rt.Drain()

		// Phase 2: location phase, targeted at LMs owning active locations.
		clear(e.lmNeeded)
		for _, locID := range e.activeLocList {
			lmID := e.lmOf[locID]
			if e.lmNeeded[lmID] {
				continue
			}
			e.lmNeeded[lmID] = true
			e.rt.Send(charm.ChareRef{Array: e.lmArr, Index: lmID}, msgRunDESActive{Day: day})
		}
		rep.LocationPhase = e.rt.Drain()
		rep.Events = rep.LocationPhase.Reductions["events"]
		rep.Interactions = rep.LocationPhase.Reductions["interactions"]
		rep.Trials = rep.LocationPhase.Reductions["trials"]
	}

	// Phase 3: apply updates, targeted at PMs with buffered infections
	// or progressing persons.
	sent := false
	for pmID := range e.pmHealth {
		if len(e.infectionBuf[pmID]) == 0 && len(e.pmHealth[pmID].progressing) == 0 {
			continue
		}
		e.rt.Send(charm.ChareRef{Array: e.pmArr, Index: int32(pmID)}, msgApplyUpdatesActive{Day: day})
		sent = true
	}
	if sent {
		rep.UpdatePhase = e.rt.Drain()
		rep.NewInfections = rep.UpdatePhase.Reductions["newinfections"]
		e.cumulative += rep.NewInfections
	}

	e.endSparseDay(&rep)
	return rep
}

// computeVisitsActive is the active-set person phase: only this PM's
// active persons evaluate their schedules, and only visits to active
// locations are sent.
func (pm *personManager) computeVisitsActive(ctx *charm.Ctx, day int) {
	e := pm.eng
	pm.beginVisits()
	for _, p := range e.activePersons[pm.id] {
		pm.sendVisits(ctx, p, day, e.activeLoc)
	}
}

// applyUpdatesActive is the active-set update phase: the same canonical
// infection resolution as dense, but progression walks only the
// progressing set instead of every person this PM owns. State counts
// come from the incremental counters, so no per-person reduction is
// contributed.
func (pm *personManager) applyUpdatesActive(ctx *charm.Ctx, day int) {
	if n := pm.resolveInfections(day); n > 0 {
		ctx.Contribute("newinfections", n)
	}
	pm.eng.progressSparse(pm.id, day)
}
