package core

import (
	"repro/internal/des"
	"repro/internal/synthpop"
)

// The location phase's static schedule. A location's visits are the same
// every day, so their DES event order is computed once per engine — the
// paper's static load model rests on exactly this — and a day only fills
// it: each visit message names the visit's slot, the receiving LM writes
// the day's infectivity and susceptibility into it (des.Schedule.Fill),
// and the DES walks the location's static order, skipping slots nobody
// filled today. A run whose every day is Gillespie never builds it.

// visitIndex copies the visits into location order on first use: location
// l's visits are locVisits[locOffsets[l]:locOffsets[l+1]], each location's
// in person order.
func (e *Engine) visitIndex() {
	if e.locOffsets == nil {
		offsets, order := e.pop.VisitIndexByLocation()
		e.locVisits = make([]synthpop.Visit, len(order))
		for s, vi := range order {
			e.locVisits[s] = e.pop.Visits[vi]
		}
		e.locOffsets = offsets
	}
}

// beginLocationDay opens a day that runs a location phase, building the
// static schedule on the first: location l's visits are its slots
// [locOffsets[l], locOffsets[l+1]), which the schedule numbers in arrival
// order, and each PM's slot list names them with their locations.
func (e *Engine) beginLocationDay() {
	if e.sched == nil {
		e.visitIndex()
		slots := make([]des.Visitor, len(e.locVisits))
		size := make([]int, len(e.pmHealth))
		for i := range e.pop.Visits {
			size[e.pmOf[e.pop.Visits[i].Person]]++
		}
		e.pmSlots = make([][]slotRef, len(e.pmHealth))
		for pm, n := range size {
			e.pmSlots[pm] = make([]slotRef, 0, n)
		}
		for s := range e.locVisits {
			v := &e.locVisits[s]
			slots[s] = des.Visitor{Person: v.Person, Sub: v.Sub, OrigSub: e.pop.Locations[v.Loc].SubBase + v.Sub,
				Start: v.Start, End: v.End}
			pm := e.pmOf[v.Person]
			e.pmSlots[pm] = append(e.pmSlots[pm], slotRef{int32(s), v.Loc, v.Person})
		}
		var renumber []int32
		e.sched, renumber = des.NewSchedule(slots, e.locOffsets)
		for _, refs := range e.pmSlots {
			for i := range refs {
				refs[i].slot = renumber[refs[i].slot]
			}
		}
	}
	e.sched.NextDay()
}
