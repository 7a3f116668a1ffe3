package core

import "repro/internal/des"

// The location phase's static schedule. A location's visits are the same
// every day, so their DES event order is computed once per engine — the
// paper's static load model rests on exactly this — and a day only fills
// it: each visit message names the visit's slot, the receiving LM writes
// the day's infectivity and susceptibility into it (des.Schedule.Fill),
// and the DES walks the location's static order, skipping slots nobody
// filled today. A run whose every day is Gillespie never builds it.

// visitIndex computes the inverted static schedule on first use.
func (e *Engine) visitIndex() {
	if e.locOffsets == nil {
		e.locOffsets, e.locOrder = e.pop.VisitIndexByLocation()
	}
}

// visitsAt returns location l's visits as indices into pop.Visits.
func (e *Engine) visitsAt(l int32) []int32 {
	return e.locOrder[e.locOffsets[l]:e.locOffsets[l+1]]
}

// beginLocationDay opens a day that runs a location phase, building the
// static schedule on the first: slot s holds the static fields of visit
// locOrder[s], so location l's slots are [locOffsets[l], locOffsets[l+1]),
// and each PM's slot list names them with their locations.
func (e *Engine) beginLocationDay() {
	if e.sched == nil {
		e.visitIndex()
		slots := make([]des.Visitor, len(e.locOrder))
		size := make([]int, len(e.pmHealth))
		for i := range e.pop.Visits {
			size[e.pmOf[e.pop.Visits[i].Person]]++
		}
		e.pmSlots = make([][]slotRef, len(e.pmHealth))
		for pm, n := range size {
			e.pmSlots[pm] = make([]slotRef, 0, n)
		}
		for s, vi := range e.locOrder {
			v := &e.pop.Visits[vi]
			slots[s] = des.Visitor{Person: v.Person, Sub: v.Sub, OrigSub: e.pop.Locations[v.Loc].SubBase + v.Sub,
				Start: v.Start, End: v.End}
			pm := e.pmOf[v.Person]
			e.pmSlots[pm] = append(e.pmSlots[pm], slotRef{int32(s), v.Loc, v.Person})
		}
		e.sched = des.NewSchedule(slots, e.locOffsets)
	}
	e.sched.NextDay()
}
