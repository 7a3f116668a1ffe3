package core

import (
	"math"
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

// srcVisit is one kept visit of an effectively infectious person.
type srcVisit struct {
	person     int32
	sub        int32
	start, end int16
	inf        float64
}

// runDayEvent executes one day of the event kernel. It shares the
// active-set kernel's frontier walk to find the reachable locations,
// then resolves transmission analytically instead of via the DES.
func (e *Engine) runDayEvent(day int) DayReport {
	rep := DayReport{Day: day, Kernel: KernelEvent}
	e.beginDay(day, false)
	if e.srcVisits == nil {
		e.srcVisits = make([][]srcVisit, e.pop.NumLocations())
		e.lambda = make([]float64, e.pop.NumPersons())
	}

	// The frontier's kept visits, grouped by location in walk order.
	e.walkFrontier(day, func(v *synthpop.Visit, inf float64) {
		e.srcVisits[v.Loc] = append(e.srcVisits[v.Loc], srcVisit{
			person: v.Person, sub: v.Sub, start: v.Start, end: v.End, inf: inf,
		})
	})

	// Hazard accumulation. Locations are walked in ascending id order and
	// susceptibles in visit order within each, so the floating-point
	// accumulation order — and with it the whole trajectory — is
	// deterministic for a given seed.
	slices.Sort(e.activeLocList)
	tau := e.model.Transmissibility
	persons := e.exposed[:0]
	var interactions, trials int64
	for _, locID := range e.activeLocList {
		sv := e.srcVisits[locID]
		e.srcVisits[locID] = sv[:0]
		for _, vi := range e.visitsAt(locID) {
			v := &e.pop.Visits[vi]
			p := v.Person
			hs := &e.health[p]
			sus := e.model.Susceptibility(hs.State, hs.Treatment)
			if sus <= 0 {
				continue
			}
			if !e.keepVisit(p, hs, v.Loc, &e.pop.Locations[v.Loc], day) {
				continue
			}
			var h float64
			for i := range sv {
				s := &sv[i]
				if s.person == p || s.sub != v.Sub {
					continue
				}
				start := v.Start
				if s.start > start {
					start = s.start
				}
				end := v.End
				if s.end < end {
					end = s.end
				}
				if end <= start {
					continue
				}
				h += s.inf * float64(end-start)
				interactions++
			}
			if h > 0 {
				if !e.personMark[p] {
					e.personMark[p] = true
					persons = append(persons, p)
				}
				e.lambda[p] += tau * sus * h
			}
		}
	}

	// One exponential waiting time per exposed susceptible: infect iff
	// t = -ln(1-u)/Λ lands inside the day, i.e. -log1p(-u) < Λ.
	slices.Sort(persons)
	var newInf int64
	for _, p := range persons {
		trials++
		u := xrand.KeyedFloat64(0x6e4a7, e.cfg.Seed, uint64(day), uint64(p))
		if -math.Log1p(-u) < e.lambda[p] {
			e.applyInfection(p, day)
			newInf++
		}
		e.personMark[p], e.lambda[p] = false, 0
	}
	e.exposed = persons

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
