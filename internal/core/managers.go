package core

import (
	"sort"

	"repro/internal/charm"
	"repro/internal/des"
)

// personManager is a PM chare (Figure 1): it manages a set of person
// objects — their PTTS state, daily schedule decisions and visit messages.
type personManager struct {
	eng     *Engine
	id      int32
	persons []int32
}

func (pm *personManager) Recv(ctx *charm.Ctx, msg charm.Message) {
	switch m := msg.(type) {
	case msgComputeVisits:
		pm.computeVisits(ctx, m.Day)
	case infectMsg:
		pm.eng.infectionBuf[pm.id] = append(pm.eng.infectionBuf[pm.id], m)
	case msgApplyUpdates:
		pm.applyUpdates(ctx, m.Day)
	case msgComputeVisitsActive:
		pm.computeVisitsActive(ctx, m.Day)
	case msgApplyUpdatesActive:
		pm.applyUpdatesActive(ctx, m.Day)
	default:
		panic("core: personManager received unknown message")
	}
}

// computeVisits is phase 1 for this PM's persons: evaluate behavioral
// filters (closures, isolation, demand reduction) and send one visit
// message per kept visit.
func (pm *personManager) computeVisits(ctx *charm.Ctx, day int) {
	for _, p := range pm.persons {
		pm.sendVisits(ctx, p, day, nil)
	}
}

// sendVisits evaluates person p's schedule for the day and sends one
// visit message per kept visit — to every location (dense), or only to
// locations marked in active (the active-set path). The behavioral
// filters draw from content-keyed streams, so restricting the send set
// cannot perturb any other draw.
func (pm *personManager) sendVisits(ctx *charm.Ctx, p int32, day int, active []bool) {
	e := pm.eng
	eff := e.effects
	hs := &e.health[p]
	stateName := e.stateNames[hs.State]
	isolated := eff.Isolated(stateName)
	inf := e.model.Infectivity(hs.State, hs.Treatment)
	sus := e.model.Susceptibility(hs.State, hs.Treatment)

	for _, v := range e.pop.PersonVisits(p) {
		loc := &e.pop.Locations[v.Loc]
		if !e.keepVisit(p, isolated, v.Loc, loc, day) {
			continue
		}
		msg := visitMsg{
			Person:  p,
			Loc:     v.Loc,
			Sub:     v.Sub,
			OrigSub: loc.SubBase + v.Sub,
			Start:   v.Start,
			End:     v.End,
			Inf:     float32(inf),
			Sus:     float32(sus),
		}
		if active == nil || active[v.Loc] {
			ctx.Send(charm.ChareRef{Array: e.lmArr, Index: e.lmOf[v.Loc]}, msg)
		}
		// Mixing mode on a split location: replicate the infectious
		// visitor into the sibling fragments so cross-sublocation
		// pairs are still evaluated (Figure 6(b): "divide the
		// susceptibles while replicating the infectious").
		if e.cfg.Mixing > 0 && inf > 0 {
			for _, frag := range e.fragments[loc.Origin] {
				if frag == v.Loc {
					continue
				}
				if active != nil && !active[frag] {
					continue
				}
				rep := msg
				rep.Loc = frag
				rep.Sus = 0 // replicas infect; they are infected at home
				ctx.Send(charm.ChareRef{Array: e.lmArr, Index: e.lmOf[frag]}, rep)
			}
		}
	}
}

// applyUpdates is phase 5/6: resolve buffered infect messages (earliest
// exposure wins), advance dwell clocks and PTTS transitions, and
// contribute the global health-state counts.
func (pm *personManager) applyUpdates(ctx *charm.Ctx, day int) {
	e := pm.eng
	if n := pm.resolveInfections(day); n > 0 {
		ctx.Contribute("newinfections", n)
	}

	// Dwell/transition progression for everyone this PM owns.
	for _, p := range pm.persons {
		e.progressPerson(p, day)
		ctx.Contribute("state:"+e.stateNames[e.health[p].State], 1)
	}
}

// resolveInfections drains this PM's buffered infect messages in
// canonical order and applies the successful exposures, returning the
// new-infection count.
func (pm *personManager) resolveInfections(day int) int64 {
	e := pm.eng
	buf := e.infectionBuf[pm.id]
	e.infectionBuf[pm.id] = nil
	// Canonical resolution order: infections may arrive from many LMs in
	// any order; sort so the outcome is order-independent.
	sort.Slice(buf, func(i, j int) bool {
		a, b := buf[i], buf[j]
		if a.Person != b.Person {
			return a.Person < b.Person
		}
		if a.Minute != b.Minute {
			return a.Minute < b.Minute
		}
		return a.Infector < b.Infector
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

// locationManager is an LM chare: it buffers inbound visit messages and
// replays them as the per-location DES in phase 2.
type locationManager struct {
	eng     *Engine
	id      int32
	locs    []int32
	pending map[int32][]des.Visitor
}

func (lm *locationManager) Recv(ctx *charm.Ctx, msg charm.Message) {
	switch m := msg.(type) {
	case visitMsg:
		lm.pending[m.Loc] = append(lm.pending[m.Loc], des.Visitor{
			Person:         m.Person,
			Sub:            m.Sub,
			OrigSub:        m.OrigSub,
			Start:          m.Start,
			End:            m.End,
			Infectivity:    float64(m.Inf),
			Susceptibility: float64(m.Sus),
		})
	case msgRunDES:
		lm.runDES(ctx, m.Day)
	case msgRunDESActive:
		lm.runDESActive(ctx, m.Day)
	default:
		panic("core: locationManager received unknown message")
	}
}

func (lm *locationManager) runDES(ctx *charm.Ctx, day int) {
	var events, interactions, trials int64
	var result des.Result
	for _, locID := range lm.locs {
		visitors := lm.pending[locID]
		if len(visitors) == 0 {
			continue
		}
		delete(lm.pending, locID)
		lm.simulateLoc(ctx, &result, locID, visitors, day, &events, &interactions, &trials)
	}
	// Clear any leftovers (visits to locations whose DES did not run are
	// impossible, but a stray map entry would leak across days).
	for k := range lm.pending {
		delete(lm.pending, k)
	}
	lm.contribute(ctx, events, interactions, trials)
}

// runDESActive replays only the locations that received visits. The
// pending map's iteration order is irrelevant: each location's DES is
// independent, infect messages are canonically re-sorted by the
// receiving PM, and the workload counters are sums.
func (lm *locationManager) runDESActive(ctx *charm.Ctx, day int) {
	var events, interactions, trials int64
	var result des.Result
	for locID, visitors := range lm.pending {
		delete(lm.pending, locID)
		if len(visitors) == 0 {
			continue
		}
		lm.simulateLoc(ctx, &result, locID, visitors, day, &events, &interactions, &trials)
	}
	lm.contribute(ctx, events, interactions, trials)
}

// simulateLoc runs one location's per-day DES and forwards the resulting
// infect messages.
func (lm *locationManager) simulateLoc(ctx *charm.Ctx, result *des.Result, locID int32,
	visitors []des.Visitor, day int, events, interactions, trials *int64) {
	e := lm.eng
	loc := &e.pop.Locations[locID]
	result.Reset()
	des.Simulate(visitors, des.Params{
		Day: uint64(day) ^ e.cfg.Seed,
		// Keys use the pre-splitLoc identity so splitting cannot
		// change outcomes.
		LocKey:  uint64(loc.Origin),
		SubBase: loc.SubBase,
		Tau:     e.model.Transmissibility,
		Mixing:  e.cfg.Mixing,
	}, result)
	*events += int64(result.Events)
	*interactions += result.Interactions
	*trials += result.Trials
	for _, inf := range result.Infections {
		ctx.Send(charm.ChareRef{Array: e.pmArr, Index: e.pmOf[inf.Person]}, infectMsg{
			Person:   inf.Person,
			Infector: inf.Infector,
			Minute:   inf.Minute,
		})
	}
}

func (lm *locationManager) contribute(ctx *charm.Ctx, events, interactions, trials int64) {
	if events > 0 {
		ctx.Contribute("events", events)
	}
	if interactions > 0 {
		ctx.Contribute("interactions", interactions)
	}
	if trials > 0 {
		ctx.Contribute("trials", trials)
	}
}
