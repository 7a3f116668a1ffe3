package core

import (
	"repro/internal/charm"
	"repro/internal/synthpop"
	"repro/internal/xrand"
)

// The day stepper. A dense day sends every phase to every manager; an
// active day (Config.Kernel "auto") first walks the infectious frontier,
// marks the locations it can reach through kept visits, and targets only
// the managers owning active work. Both are the same three phases with the
// same handlers — a dense day is the stepper with every manager targeted.
// Because every stochastic draw is keyed by content, skipping a person or
// location whose work prices to zero cannot perturb any other draw — the
// trajectory (new infections, state counts, attack rate) of an active day
// is byte-identical to a dense day's; only the phase statistics reflect
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
//   - every visit of a marked location is re-evaluated by its visitor's PM
//     through the same shared filter, so marked locations receive exactly
//     the dense kernel's kept-visit multiset, and the per-location DES
//     output is arrival-order-insensitive;
//   - unmarked locations receive nothing and would have produced no
//     infections; and
//   - phase 3 resolves the same infect-message multiset in the same
//     canonical order and progresses the same set of persons (only
//     persons with DaysLeft >= 0 can change state without an exposure).
//
// A dense day still progresses every person in id order and contributes
// the per-state reductions: the progressing set's order is the one the
// event kernel's hazard sums walk (checkpoint.go), and the reductions are
// part of the phase statistics.

// keepVisit evaluates the behavioral filters (isolation, closures,
// demand reduction) for one visit of person p, in health state hs, making
// exactly the keyed draws the dense person phase makes. Shared by the
// person phase, the frontier walk and the event kernel, so they can never
// disagree about which visits happen.
func (e *Engine) keepVisit(p int32, hs *personState, locID int32, loc *synthpop.Location, day int) bool {
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
			visits := e.pop.PersonVisits(p)
			for i := range visits {
				v := &visits[i]
				loc := &e.pop.Locations[v.Loc]
				if !e.keepVisit(p, hs, v.Loc, loc, day) {
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
// decrement exactly as a dense day's full scan gives them.
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

// runDayStepped executes one day of the day stepper, labelled kernel. A
// dense day targets every manager in every phase. An active day walks the
// frontier and targets only the managers owning its work: with an empty
// frontier it skips phases 1 and 2 (no location can transmit), and phase 3
// reaches only PMs holding buffered infections or progressing persons, so
// a fully quiescent day costs O(managers).
func (e *Engine) runDayStepped(day int, kernel string, dense bool) DayReport {
	rep := DayReport{Day: day, Kernel: kernel}
	e.beginDay(day, dense)
	if !dense {
		e.walkFrontier(day, nil)
	}
	if dense || len(e.activeLocList) > 0 {
		e.beginLocationDay()
		// An active day's person phase: every slot of an active location,
		// bucketed by the PM managing its visitor. Their order is not
		// observable: an LM fills static slots, the DES walks them in static
		// order, and infections are re-sorted canonically.
		if !dense {
			for pmID := range e.activeSlots {
				e.activeSlots[pmID] = e.activeSlots[pmID][:0]
			}
			for _, l := range e.activeLocList {
				for s := e.locOffsets[l]; s < e.locOffsets[l+1]; s++ {
					p := e.sched.Visit(s).Person
					pmID := e.pmOf[p]
					e.activeSlots[pmID] = append(e.activeSlots[pmID], slotRef{s, l, p})
				}
			}
		}

		// Phase 1: person phase, at every PM or those with active slots.
		for pmID := range e.pmHealth {
			if dense || len(e.activeSlots[pmID]) > 0 {
				e.rt.Send(charm.ChareRef{Array: e.pmArr, Index: int32(pmID)}, msgComputeVisits{Day: day})
			}
		}
		rep.PersonPhase = e.rt.Drain()

		// Phase 2: location phase, at every LM or those owning active locations.
		clear(e.lmNeeded)
		for _, locID := range e.activeLocList {
			e.lmNeeded[e.lmOf[locID]] = true
		}
		for lmID := range e.rt.ArrayLen(e.lmArr) {
			if dense || e.lmNeeded[lmID] {
				e.rt.Send(charm.ChareRef{Array: e.lmArr, Index: int32(lmID)}, msgRunDES{Day: day})
			}
		}
		rep.LocationPhase = e.rt.Drain()
		rep.Events = rep.LocationPhase.Reductions["events"]
		rep.Interactions = rep.LocationPhase.Reductions["interactions"]
		rep.Trials = rep.LocationPhase.Reductions["trials"]
	}

	// Phase 3: apply updates, at every PM or those holding buffered
	// infections or progressing persons.
	sent := false
	for pmID := range e.pmHealth {
		if dense || len(e.infectionBuf[pmID]) > 0 || len(e.pmHealth[pmID].progressing) > 0 {
			e.rt.Send(charm.ChareRef{Array: e.pmArr, Index: int32(pmID)}, msgApplyUpdates{Day: day})
			sent = true
		}
	}
	if sent {
		rep.UpdatePhase = e.rt.Drain()
		rep.NewInfections = rep.UpdatePhase.Reductions["newinfections"]
		e.cumulative += rep.NewInfections
	}

	e.endDay(&rep)
	return rep
}
