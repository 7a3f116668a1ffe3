package core

import (
	"cmp"
	"slices"

	"repro/internal/charm"
	"repro/internal/des"
)

// personManager is a PM chare (Figure 1): it manages a set of person
// objects — their PTTS state, daily schedule decisions and visit messages.
type personManager struct {
	eng     *Engine
	id      int32
	persons []int32
	// visits is the slab this PM sends its visit messages from: a message
	// is appended and &visits[i] is sent, which boxes nothing. Lifetime
	// rule (package comment): emptied only at the start of the next day's
	// person phase, after every receiver has copied what it was sent, and
	// only appended to within a phase, so growing it mid-phase leaves the
	// pointers already sent on the old array, which nobody writes again.
	// Its first use sizes it to the persons' static visits, so only
	// mixing-mode replicas can grow it.
	visits []visitMsg
}

// beginVisits empties the visit slab for a person phase, allocating it on
// the first.
func (pm *personManager) beginVisits() {
	if pm.visits == nil {
		n := 0
		for _, p := range pm.persons {
			n += len(pm.eng.pop.PersonVisits(p))
		}
		pm.visits = make([]visitMsg, 0, n)
	}
	pm.visits = pm.visits[:0]
}

func (pm *personManager) Recv(ctx *charm.Ctx, msg charm.Message) {
	switch m := msg.(type) {
	case msgComputeVisits:
		pm.computeVisits(ctx, m.Day)
	case *infectMsg:
		pm.eng.infectionBuf[pm.id] = append(pm.eng.infectionBuf[pm.id], *m)
	case msgApplyUpdates:
		pm.applyUpdates(ctx, m.Day)
	default:
		panic("core: personManager received unknown message")
	}
}

// computeVisits is phase 1 for this PM's persons — all of them on a dense
// day, only its active persons otherwise: evaluate behavioral filters
// (closures, isolation, demand reduction) and send one visit message per
// kept visit, on an active day only to active locations.
func (pm *personManager) computeVisits(ctx *charm.Ctx, day int) {
	e := pm.eng
	persons, active := pm.persons, []bool(nil)
	if !e.denseDay {
		persons, active = e.activePersons[pm.id], e.activeLoc
	}
	pm.beginVisits()
	for _, p := range persons {
		pm.sendVisits(ctx, p, day, active)
	}
}

// sendVisits evaluates person p's schedule for the day and sends one
// visit message per kept visit — to every location (dense), or only to
// locations marked in active (the active-set path). The behavioral
// filters draw from content-keyed streams, so restricting the send set,
// and skipping the filters of visits it excludes, cannot perturb any
// other draw.
func (pm *personManager) sendVisits(ctx *charm.Ctx, p int32, day int, active []bool) {
	e := pm.eng
	hs := &e.health[p]
	isolated := e.effects.Isolated(e.stateNames[hs.State])
	inf := e.model.Infectivity(hs.State, hs.Treatment)
	sus := e.model.Susceptibility(hs.State, hs.Treatment)

	first := e.pop.PersonVisitOffsets[p]
	for i, v := range e.pop.PersonVisits(p) {
		// In mixing mode an active location's whole fragment family is
		// active, so an inactive one has no sibling to replicate into.
		if active != nil && !active[v.Loc] {
			continue
		}
		loc := &e.pop.Locations[v.Loc]
		if !e.keepVisit(p, isolated, v.Loc, loc, day) {
			continue
		}
		msg := visitMsg{Slot: e.slotOf[first+int32(i)], Loc: v.Loc, Inf: float32(inf), Sus: float32(sus)}
		pm.sendVisit(ctx, msg)
		// Mixing mode on a split location: replicate the infectious
		// visitor into the sibling fragments so cross-sublocation
		// pairs are still evaluated (Figure 6(b): "divide the
		// susceptibles while replicating the infectious").
		if e.cfg.Mixing > 0 && inf > 0 {
			for _, frag := range e.fragments[loc.Origin] {
				if frag == v.Loc {
					continue
				}
				rep := msg
				rep.Loc = frag
				rep.Sus = 0 // replicas infect; they are infected at home
				pm.sendVisit(ctx, rep)
			}
		}
	}
}

// sendVisit sends msg to the manager of its location from the slab. The
// pointer is taken after the append, which may have moved the slab.
func (pm *personManager) sendVisit(ctx *charm.Ctx, msg visitMsg) {
	pm.visits = append(pm.visits, msg)
	ctx.Send(charm.ChareRef{Array: pm.eng.lmArr, Index: pm.eng.lmOf[msg.Loc]}, &pm.visits[len(pm.visits)-1])
}

// applyUpdates is phase 5/6: resolve buffered infect messages (earliest
// exposure wins) and advance dwell clocks and PTTS transitions. An active
// day walks only the progressing set; a dense day progresses everyone this
// PM owns, in id order, and contributes the global health-state counts.
func (pm *personManager) applyUpdates(ctx *charm.Ctx, day int) {
	e := pm.eng
	if n := pm.resolveInfections(day); n > 0 {
		ctx.Contribute("newinfections", n)
	}
	if !e.denseDay {
		e.progressSparse(pm.id, day)
		return
	}
	for _, p := range pm.persons {
		e.progressPerson(p, day)
	}
	for s, n := range e.pmHealth[pm.id].counts {
		if n != 0 {
			ctx.Contribute(e.stateKeys[s], n)
		}
	}
}

// resolveInfections drains this PM's buffered infect messages in
// canonical order and applies the successful exposures, returning the
// new-infection count.
func (pm *personManager) resolveInfections(day int) int64 {
	e := pm.eng
	buf := e.infectionBuf[pm.id]
	e.infectionBuf[pm.id] = buf[:0]
	// Canonical resolution order: infections may arrive from many LMs in
	// any order; sort so the outcome is order-independent.
	slices.SortFunc(buf, func(a, b infectMsg) int {
		return cmp.Or(cmp.Compare(a.Person, b.Person), cmp.Compare(a.Minute, b.Minute), cmp.Compare(a.Infector, b.Infector))
	})
	var newInf int64
	for i := 0; i < len(buf); {
		p := buf[i].Person
		j := i
		for j < len(buf) && buf[j].Person == p {
			j++
		}
		hs := &e.health[p]
		if e.model.Susceptibility(hs.State, hs.Treatment) > 0 {
			e.applyInfection(p, day)
			newInf++
		}
		i = j
	}
	return newInf
}

// locationManager is an LM chare: it records inbound visit messages in
// the engine's static schedule and replays each location's day as the DES
// in phase 2.
type locationManager struct {
	eng  *Engine
	id   int32
	locs []int32
	// received[i] counts the visit messages locs[i] received today (i is
	// Engine.lmIndex of the location), replicas included; touched lists the
	// i that received any. A visit fills its slot of the schedule; a
	// mixing-mode replica, whose slot is a sibling fragment's, goes to
	// extras[i] (mixing mode only), truncated after the DES.
	received []int32
	touched  []int32
	extras   [][]des.Visitor
	// result accumulates the day's DES over this LM's locations, and its
	// Infections are the slab the infect messages are sent from, under the
	// rule of personManager.visits: reset only by the next day's location
	// phase, appended to (never rewritten) within one.
	result des.Result
}

func newLocationManager(e *Engine, id int32, locs []int32) *locationManager {
	lm := &locationManager{eng: e, id: id, locs: locs, received: make([]int32, len(locs))}
	for i, l := range locs {
		e.lmIndex[l] = int32(i)
	}
	if e.cfg.Mixing > 0 {
		lm.extras = make([][]des.Visitor, len(locs))
	}
	return lm
}

func (lm *locationManager) Recv(ctx *charm.Ctx, msg charm.Message) {
	switch m := msg.(type) {
	case *visitMsg:
		e := lm.eng
		i := e.lmIndex[m.Loc]
		if lm.received[i] == 0 {
			lm.touched = append(lm.touched, i)
		}
		lm.received[i]++
		if m.Slot >= e.locOffsets[m.Loc] && m.Slot < e.locOffsets[m.Loc+1] {
			e.sched.Fill(m.Slot, float64(m.Inf), float64(m.Sus))
			return
		}
		v := e.sched.Visit(m.Slot)
		v.Infectivity, v.Susceptibility = float64(m.Inf), float64(m.Sus)
		lm.extras[i] = append(lm.extras[i], v)
	case msgRunDES:
		// Only the locations that received visits, in the order they first
		// did. The order cannot change a counter: each location's DES is
		// independent, infect messages are canonically re-sorted by the
		// receiving PM, the workload counters are sums, and every send
		// happens inside this one Recv, so the runtime sees the same
		// per-destination counts whatever the order.
		lm.result.Reset()
		for _, i := range lm.touched {
			lm.simulateLoc(ctx, i, m.Day)
		}
		lm.contribute(ctx)
	default:
		panic("core: locationManager received unknown message")
	}
}

// simulateLoc runs the per-day DES of locs[i], which received visits today,
// and forwards the resulting infect messages.
func (lm *locationManager) simulateLoc(ctx *charm.Ctx, i int32, day int) {
	lm.received[i] = 0
	var extras []des.Visitor
	if lm.extras != nil {
		extras = lm.extras[i]
		lm.extras[i] = extras[:0]
	}
	e := lm.eng
	l := lm.locs[i]
	loc := &e.pop.Locations[l]
	first := len(lm.result.Infections)
	e.sched.Simulate(l, extras, des.Params{
		Day: uint64(day) ^ e.cfg.Seed,
		// Keys use the pre-splitLoc identity so splitting cannot
		// change outcomes.
		LocKey:  uint64(loc.Origin),
		SubBase: loc.SubBase,
		Tau:     e.model.Transmissibility,
		Mixing:  e.cfg.Mixing,
	}, &lm.result)
	found := lm.result.Infections[first:]
	for i := range found {
		ctx.Send(charm.ChareRef{Array: e.pmArr, Index: e.pmOf[found[i].Person]}, (*infectMsg)(&found[i]))
	}
}

// contribute closes the LM's location phase: the day's workload counters
// go into the phase reduction and the touched list is emptied.
func (lm *locationManager) contribute(ctx *charm.Ctx) {
	lm.touched = lm.touched[:0]
	r := &lm.result
	if r.Events > 0 {
		ctx.Contribute("events", int64(r.Events))
	}
	if r.Interactions > 0 {
		ctx.Contribute("interactions", r.Interactions)
	}
	if r.Trials > 0 {
		ctx.Contribute("trials", r.Trials)
	}
}
