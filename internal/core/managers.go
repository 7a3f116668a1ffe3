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
	// batches[lm] collects the visit messages of a person phase bound for
	// LM lm; once complete, &batches[lm] is sent as one envelope, which
	// boxes nothing. Lifetime rule (package comment): emptied only at the
	// start of the next day's person phase, after every receiver has copied
	// what it was sent. Their first use sizes them to the PM's static
	// slots, so only mixing-mode replicas can grow one.
	batches []visitBatch
}

// beginBatches empties the per-LM batches for a person phase, allocating
// them on the first as windows of one array.
func (pm *personManager) beginBatches() {
	e := pm.eng
	if pm.batches == nil {
		size := make([]int, e.rt.ArrayLen(e.lmArr))
		for _, r := range e.pmSlots[pm.id] {
			size[e.lmOf[r.loc]]++
		}
		buf := make([]visitMsg, len(e.pmSlots[pm.id]))
		pm.batches = make([]visitBatch, len(size))
		for lm, n := range size {
			pm.batches[lm], buf = buf[:0:n], buf[n:]
		}
	}
	for lm := range pm.batches {
		pm.batches[lm] = pm.batches[lm][:0]
	}
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

// computeVisits is phase 1 for this PM's slots — all of them on a dense
// day, only those at active locations otherwise: evaluate each visitor's
// behavioral filters (closures, isolation, demand reduction), batch one
// visit message per kept visit for the manager of its location, and send
// every LM its batch. The filters draw from content-keyed streams, so
// restricting the slots cannot perturb any other draw.
func (pm *personManager) computeVisits(ctx *charm.Ctx, day int) {
	e := pm.eng
	slots := e.pmSlots[pm.id]
	if !e.denseDay {
		slots = e.activeSlots[pm.id]
	}
	pm.beginBatches()
	for _, r := range slots {
		hs := &e.health[r.person]
		loc := &e.pop.Locations[r.loc]
		if !e.keepVisit(r.person, hs, r.loc, loc, day) {
			continue
		}
		inf := e.model.Infectivity(hs.State, hs.Treatment)
		sus := e.model.Susceptibility(hs.State, hs.Treatment)
		msg := visitMsg{Slot: r.slot, Loc: r.loc, Inf: float32(inf), Sus: float32(sus)}
		pm.batch(msg)
		// Mixing mode on a split location: replicate the infectious
		// visitor into the sibling fragments so cross-sublocation
		// pairs are still evaluated (Figure 6(b): "divide the
		// susceptibles while replicating the infectious"). On an active
		// day the whole family of an active location is active.
		if e.cfg.Mixing > 0 && inf > 0 {
			for _, frag := range e.fragments[loc.Origin] {
				if frag == r.loc {
					continue
				}
				rep := msg
				rep.Loc = frag
				rep.Sus = 0 // replicas infect; they are infected at home
				pm.batch(rep)
			}
		}
	}
	for lm := range pm.batches {
		if n := len(pm.batches[lm]); n > 0 {
			ctx.SendN(charm.ChareRef{Array: e.lmArr, Index: int32(lm)}, &pm.batches[lm], n)
		}
	}
}

// batch appends msg to the batch for the manager of its location.
func (pm *personManager) batch(msg visitMsg) {
	lm := pm.eng.lmOf[msg.Loc]
	pm.batches[lm] = append(pm.batches[lm], msg)
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
	// rule of personManager.batches: reset only by the next day's location
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
	case *visitBatch:
		e := lm.eng
		for _, v := range *m {
			i := e.lmIndex[v.Loc]
			if lm.received[i] == 0 {
				lm.touched = append(lm.touched, i)
			}
			lm.received[i]++
			if v.Slot >= e.locOffsets[v.Loc] && v.Slot < e.locOffsets[v.Loc+1] {
				e.sched.Fill(v.Slot, float64(v.Inf), float64(v.Sus))
				continue
			}
			x := e.sched.Visit(v.Slot)
			x.Infectivity, x.Susceptibility = float64(v.Inf), float64(v.Sus)
			lm.extras[i] = append(lm.extras[i], x)
		}
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
