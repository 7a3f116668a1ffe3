// Fork-point checkpointing: a Checkpoint captures the engine's complete
// cross-day epidemic state at a day boundary, and Restore loads it into
// a freshly built engine so the remaining days replay exactly as if the
// run had never stopped.
//
// Why this is exact and not approximate: every stochastic draw in the
// engine is a stateless keyed hash (person id, day, location, seed) —
// there are no RNG stream positions to capture — and every day ends with
// the per-day buffers drained (infect messages applied, DES queues
// empty, effects ticked). The complete cross-day state is therefore the
// per-person health records, the cumulative-infection counter, the
// intervention effects and rule latches, the event kernel's hysteresis
// latch, and the per-PM sparse sets. The sparse sets are serialized in
// their exact insertion order, not canonicalized: the event kernel
// accumulates floating-point hazards by walking them, so byte-identical
// resumption requires the walk order to survive the round trip.
package core

import (
	"fmt"

	"repro/internal/charm"
	"repro/internal/disease"
	"repro/internal/interventions"
)

// Checkpoint is the engine's complete epidemic state at the end of day
// Day (Day 0 = before the first simulated day). It also carries the
// prefix's DayReports so a resumed Run returns the same full Result a
// from-scratch run would.
type Checkpoint struct {
	// Day is the number of completed days.
	Day int
	// Cumulative is the ever-infected count (attack-rate numerator).
	Cumulative int64
	// EventOn is the event kernel's hysteresis latch.
	EventOn bool

	// Parallel per-person health state (each slice has one entry per
	// person).
	States     []int32
	Treatments []int32
	DaysLeft   []int32
	Infected   []bool

	// Infectious and Progressing are each PM's sparse sets, order
	// verbatim (the event kernel's hazard accumulation walks them).
	Infectious  [][]int32
	Progressing [][]int32

	// RuleFired holds the scenario's one-shot rule latches in rule order
	// (empty for a nil scenario). On restore the flags land on the FIRST
	// len(RuleFired) rules, so a branch scenario that appends rules to
	// the checkpointed base starts with its extra rules unfired.
	RuleFired []bool
	// Effects is a deep copy of the active intervention effects.
	Effects *interventions.Effects

	// Days are the prefix's day reports, so Result.Days of a resumed run
	// is byte-identical to a from-scratch run's.
	Days []DayReport
}

// RunPrefix executes days 1..days on a freshly built engine and returns
// the checkpoint at that day boundary. days may be 0 (checkpoint the
// initial state — a fork at day zero) up to cfg.Days. The engine is left
// positioned at the boundary; calling Run afterwards finishes the
// remaining days (returning the full-run Result), which is exactly the
// from-scratch trajectory.
func (e *Engine) RunPrefix(days int) (*Checkpoint, error) {
	if e.stepped || e.startDay != 0 {
		return nil, fmt.Errorf("core: RunPrefix needs a fresh engine")
	}
	if days < 0 || days > e.cfg.Days {
		return nil, fmt.Errorf("core: prefix of %d days outside [0,%d]", days, e.cfg.Days)
	}
	reports := make([]DayReport, 0, days)
	for day := 1; day <= days; day++ {
		reports = append(reports, e.runDay(day))
	}
	cp := e.snapshot(days, reports)
	// Position the engine at the boundary so a subsequent Run resumes
	// instead of restarting at day 1.
	e.startDay = days
	e.prefix = copyDayReports(reports)
	return cp, nil
}

// Restore loads a checkpoint into a freshly built engine (same
// population, model, ranks and kernel as the engine that produced it; the
// scenario may extend the checkpointed one with additional rules). The
// next Run executes days cp.Day+1..cfg.Days and returns a Result whose
// bytes match an uninterrupted run's.
func (e *Engine) Restore(cp *Checkpoint) error {
	if e.stepped || e.startDay != 0 {
		return fmt.Errorf("core: Restore needs a fresh engine")
	}
	nP := e.pop.NumPersons()
	numPM := len(e.pmHealth)
	if cp.Day < 0 || cp.Day > e.cfg.Days {
		return fmt.Errorf("core: checkpoint day %d outside [0,%d]", cp.Day, e.cfg.Days)
	}
	if len(cp.States) != nP || len(cp.Treatments) != nP || len(cp.DaysLeft) != nP || len(cp.Infected) != nP {
		return fmt.Errorf("core: checkpoint for %d persons, engine has %d", len(cp.States), nP)
	}
	if len(cp.Infectious) != numPM || len(cp.Progressing) != numPM {
		return fmt.Errorf("core: checkpoint for %d managers, engine has %d", len(cp.Infectious), numPM)
	}
	if len(cp.Days) != cp.Day {
		return fmt.Errorf("core: checkpoint carries %d day reports for day %d", len(cp.Days), cp.Day)
	}
	nStates, nTreat := e.model.NumStates(), len(e.model.Treatments)
	for p := 0; p < nP; p++ {
		if s := cp.States[p]; s < 0 || int(s) >= nStates {
			return fmt.Errorf("core: checkpoint person %d in unknown state %d", p, s)
		}
		if t := cp.Treatments[p]; t < 0 || int(t) >= nTreat {
			return fmt.Errorf("core: checkpoint person %d under unknown treatment %d", p, t)
		}
	}
	var scenarioRules int
	if e.cfg.Scenario != nil {
		scenarioRules = len(e.cfg.Scenario.Rules)
	}
	if len(cp.RuleFired) > scenarioRules {
		return fmt.Errorf("core: checkpoint has %d rule latches, scenario has %d rules",
			len(cp.RuleFired), scenarioRules)
	}
	if cp.Effects == nil {
		return fmt.Errorf("core: checkpoint has nil effects")
	}

	// Person state, wholesale (overwriting New's seeding).
	for p := 0; p < nP; p++ {
		e.health[p] = personState{
			State:     disease.StateID(cp.States[p]),
			Treatment: disease.TreatmentID(cp.Treatments[p]),
			DaysLeft:  cp.DaysLeft[p],
			Infected:  cp.Infected[p],
		}
	}
	e.cumulative = cp.Cumulative
	e.eventOn = cp.EventOn

	// Rebuild the per-PM slabs: counts by scan, sparse sets verbatim from
	// the checkpoint (order matters), position indexes from the sets.
	for p := range e.infPos {
		e.infPos[p] = -1
		e.progPos[p] = -1
	}
	for pm := range e.pmHealth {
		h := &e.pmHealth[pm]
		for s := range h.counts {
			h.counts[s] = 0
		}
		h.infectious = append(h.infectious[:0], cp.Infectious[pm]...)
		h.progressing = append(h.progressing[:0], cp.Progressing[pm]...)
		for i, p := range h.infectious {
			if p < 0 || int(p) >= nP || e.plan.pmOf[p] != int32(pm) || e.infPos[p] >= 0 {
				return fmt.Errorf("core: checkpoint infectious set of manager %d corrupt at %d", pm, i)
			}
			e.infPos[p] = int32(i)
		}
		for i, p := range h.progressing {
			if p < 0 || int(p) >= nP || e.plan.pmOf[p] != int32(pm) || e.progPos[p] >= 0 {
				return fmt.Errorf("core: checkpoint progressing set of manager %d corrupt at %d", pm, i)
			}
			e.progPos[p] = int32(i)
		}
	}
	for p := int32(0); p < int32(nP); p++ {
		e.pmHealth[e.plan.pmOf[p]].counts[e.health[p].State]++
	}

	// Intervention state: deep-copied effects, base rules' fired latches.
	e.effects = copyEffects(cp.Effects)
	if e.cfg.Scenario != nil {
		if err := e.cfg.Scenario.SetFiredFlags(cp.RuleFired); err != nil {
			return err
		}
	}

	e.startDay = cp.Day
	e.prefix = copyDayReports(cp.Days)
	return nil
}

// snapshot deep-copies the engine's cross-day state at the end of day.
func (e *Engine) snapshot(day int, reports []DayReport) *Checkpoint {
	nP := e.pop.NumPersons()
	cp := &Checkpoint{
		Day:         day,
		Cumulative:  e.cumulative,
		EventOn:     e.eventOn,
		States:      make([]int32, nP),
		Treatments:  make([]int32, nP),
		DaysLeft:    make([]int32, nP),
		Infected:    make([]bool, nP),
		Infectious:  make([][]int32, len(e.pmHealth)),
		Progressing: make([][]int32, len(e.pmHealth)),
		Effects:     copyEffects(e.effects),
		Days:        copyDayReports(reports),
	}
	for p := 0; p < nP; p++ {
		hs := &e.health[p]
		cp.States[p] = int32(hs.State)
		cp.Treatments[p] = int32(hs.Treatment)
		cp.DaysLeft[p] = hs.DaysLeft
		cp.Infected[p] = hs.Infected
	}
	for pm := range e.pmHealth {
		cp.Infectious[pm] = append([]int32(nil), e.pmHealth[pm].infectious...)
		cp.Progressing[pm] = append([]int32(nil), e.pmHealth[pm].progressing...)
	}
	if e.cfg.Scenario != nil {
		cp.RuleFired = e.cfg.Scenario.FiredFlags()
	}
	return cp
}

// copyEffects deep-copies intervention effects (zero-valued map entries
// included: Tick decrements without deleting, and the restored maps must
// iterate to the same decisions).
func copyEffects(src *interventions.Effects) *interventions.Effects {
	dst := interventions.NewEffects()
	for k, v := range src.ClosedFor {
		dst.ClosedFor[k] = v
	}
	for k, v := range src.ReduceFrac {
		dst.ReduceFrac[k] = v
	}
	for k, v := range src.ReduceFor {
		dst.ReduceFor[k] = v
	}
	for k, v := range src.IsolateFor {
		dst.IsolateFor[k] = v
	}
	dst.VaccinateNow = src.VaccinateNow
	return dst
}

// copyDayReports deep-copies day reports (maps and per-PE slices
// included), so a checkpoint never aliases live engine state.
func copyDayReports(reports []DayReport) []DayReport {
	out := make([]DayReport, len(reports))
	for i, r := range reports {
		out[i] = copyDayReport(r)
	}
	return out
}

func copyDayReport(r DayReport) DayReport {
	r.Counts = copyCounts(r.Counts)
	r.PersonPhase = copyPhaseStats(r.PersonPhase)
	r.LocationPhase = copyPhaseStats(r.LocationPhase)
	r.UpdatePhase = copyPhaseStats(r.UpdatePhase)
	return r
}

func copyCounts(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyPhaseStats(ps charm.PhaseStats) charm.PhaseStats {
	ps.Reductions = copyCounts(ps.Reductions)
	ps.PerPE = append([]charm.PETraffic(nil), ps.PerPE...)
	return ps
}
