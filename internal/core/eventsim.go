package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/synthpop"
	"repro/internal/xrand"
)

// Gillespie/FastSIR event kernel (Config.Kernel "event"): in the sparse
// regime, instead of replaying per-location discrete-event simulations,
// the engine aggregates per-person infection hazards keyed off the
// infected frontier and draws one exponential waiting time per exposed
// susceptible.
//
// The dense DES makes an independent Bernoulli trial per infectious
// contact with escape probability exp(-τ·inf·sus·overlap); independent
// escape probabilities multiply, so the day's total survival is
// exp(-Λ_p) with Λ_p = τ·sus_p·Σ_src inf_src·overlap(src,p). Drawing an
// Exp(Λ_p) waiting time and infecting iff it lands inside the day is
// distribution-identical to the per-contact trials — but it collapses
// each susceptible's day to one uniform draw, so trajectories are
// statistically equivalent to the dense kernel (same attack-rate and
// peak distributions), not byte-identical. The equivalence is enforced
// by a CI-overlap oracle in kernel_test.go.
//
// A day pays only for the room members a source overlaps in time. At each
// active location, every source of srcVisits[location], in walk order,
// reaches the visits of its own room through the plan's room index, which
// lists each room in arrival order, as des.scan's occupancy groups do: it
// bisects past every member who arrived at or before its own arrival less
// the room's longest visit (who left before it came) and stops at the first
// who arrives at or after its departure. The first source to reach a visit
// looks up its susceptibility, -1 if it cannot be infected today
// (susceptibility ≤ 0, or dropped by keepVisit), into per-location scratch
// beside h, the visit's sum of inf·overlap. A last pass over the location's
// visits, in location-visit order (a run of Engine.locVisits), adds τ·sus·h
// to Λ_p wherever h > 0 and clears the scratch; exposedBits marks who
// accumulated a hazard in lambda.
//
// Λ_p is a float sum, so its order is part of the trajectory (the
// kernel-event golden rows pin it): each visit's h sums its sources from 0
// in frontier-walk order, and each Λ_p receives its terms with locations
// ascending and, within one, in location-visit order — the order of the
// all-pairs loop reference_test.go keeps as the oracle. The order in which
// one source touches its room's members is not part of it: it feeds only
// the Interactions count and the idempotent susceptibility lookup. Every
// product is rounded before its sum (an explicit float64 conversion), so no
// compiler may fuse one into a multiply-add. The exposed draw in ascending
// person id, the bitmap's scan order, which fixes the infectious sets'
// order and with it the next day's frontier walk.

// srcVisit is one kept visit of an effectively infectious person.
type srcVisit struct {
	person     int32
	sub        int32
	start, end int16
	inf        float64
}

// evVisit is one visit of the location whose hazards are being summed: its
// susceptibility today, 0 until a source in its room reaches it and -1 if it
// cannot be infected (an eligible one is never 0), and its sources'
// accumulated inf·overlap.
type evVisit struct{ sus, h float64 }

// runDayEvent executes one day of the event kernel.
func (e *Engine) runDayEvent(day int) DayReport {
	return e.eventDay(day, (*Engine).eventHazards)
}

// eventDay runs one event-kernel day with hazards as its accumulation step.
// It shares the active-set kernel's frontier walk to find the reachable
// locations, then resolves transmission analytically instead of via the
// DES.
func (e *Engine) eventDay(day int, hazards func(e *Engine, day int) int64) DayReport {
	rep := DayReport{Day: day, Kernel: KernelEvent}
	e.beginDay(day, false)
	if e.srcVisits == nil {
		e.srcVisits = make([][]srcVisit, e.pop.NumLocations())
		e.lambda = make([]float64, e.pop.NumPersons())
		e.exposedBits = make([]uint64, (e.pop.NumPersons()+63)/64)
		e.rooms = e.plan.rooms()
		e.evScratch = make([]evVisit, e.rooms.largest)
	}

	// The frontier's kept visits, grouped by location in walk order.
	e.walkFrontier(day, func(v *synthpop.Visit, inf float64) {
		e.srcVisits[v.Loc] = append(e.srcVisits[v.Loc], srcVisit{
			person: v.Person, sub: v.Sub, start: v.Start, end: v.End, inf: inf,
		})
	})
	slices.Sort(e.activeLocList)
	interactions := hazards(e, day)

	// One exponential waiting time per exposed susceptible, in ascending
	// person id: infect iff t = -ln(1-u)/Λ lands inside the day, i.e.
	// -log1p(-u) < Λ, which exposureBound rejects most draws before.
	var newInf, trials int64
	for w, word := range e.exposedBits {
		if word == 0 {
			continue
		}
		e.exposedBits[w] = 0
		for ; word != 0; word &= word - 1 {
			p := int32(w<<6 + bits.TrailingZeros64(word))
			trials++
			u := xrand.KeyedFloat64(0x6e4a7, e.cfg.Seed, uint64(day), uint64(p))
			if lam := e.lambda[p]; u < exposureBound(lam) && -math.Log1p(-u) < lam {
				e.applyInfection(p, day)
				newInf++
			}
			e.lambda[p] = 0
		}
	}

	for pmID := range e.pmHealth {
		e.progressSparse(int32(pmID), day)
	}

	rep.NewInfections = newInf
	e.cumulative += newInf
	rep.Interactions = interactions
	rep.Trials = trials
	e.endDay(&rep)
	return rep
}

// eventHazards adds the day's hazards into lambda and exposedBits, in the
// order of the contract above, from srcVisits, which it empties through the
// sorted activeLocList. It returns the day's Interactions: the pairs of a
// source and a susceptible visit by another person that overlap in one room.
func (e *Engine) eventHazards(day int) int64 {
	tau := e.model.Transmissibility
	var interactions int64
	for _, locID := range e.activeLocList {
		sv := e.srcVisits[locID]
		e.srcVisits[locID] = sv[:0]
		visits := e.locVisits[e.locOffsets[locID]:e.locOffsets[locID+1]]
		scratch := e.evScratch[:len(visits)]
		room := e.rooms.offsets[e.rooms.base[locID]:]
		longest := e.rooms.longest[e.rooms.base[locID]:]
		for j := range sv {
			s := &sv[j]
			members := e.rooms.order[room[s.sub]:room[s.sub+1]]
			// Bisection for the first member to arrive after minute from:
			// it is within members[k:k+w], at the end if there is none.
			k, from := 0, s.start-longest[s.sub]
			for w := len(members); w > 0; {
				half := w >> 1
				if visits[members[k+half]].Start <= from {
					k += half + 1
					w -= half + 1
				} else {
					w = half
				}
			}
			for _, i := range members[k:] {
				v := &visits[i]
				if v.Start >= s.end {
					break
				}
				if v.Person == s.person {
					continue
				}
				c := &scratch[i]
				if c.sus == 0 {
					hs := &e.health[v.Person]
					c.sus = e.model.Susceptibility(hs.State, hs.Treatment)
					if c.sus <= 0 || !e.keepVisit(v.Person, hs, locID, day) {
						c.sus = -1
					}
				}
				start, end := max(v.Start, s.start), min(v.End, s.end)
				if c.sus < 0 || end <= start {
					continue
				}
				c.h += float64(s.inf * float64(end-start))
				interactions++
			}
		}

		for i := range scratch {
			c := &scratch[i]
			if c.h > 0 {
				p := visits[i].Person
				e.exposedBits[p>>6] |= 1 << (p & 63)
				e.lambda[p] += float64(tau * c.sus * c.h)
			}
			*c = evVisit{}
		}
	}
	return interactions
}

// exposureBound is above every draw u in [0, 1) that -math.Log1p(-u) < lam
// accepts, without a logarithm: -log1p(-u) ≥ u for real u, math.Log1p errs
// by under one ulp, and the margins cover that and the bound's own rounding
// (TestExposureBoundCoversLog1p). A NaN bound accepts nothing, as a NaN
// hazard does.
func exposureBound(lam float64) float64 {
	return float64(lam*(1+0x1p-30)) + 0x1p-60
}
