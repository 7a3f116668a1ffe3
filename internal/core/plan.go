package core

import (
	"fmt"
	"sync"

	"repro/internal/des"
	"repro/internal/synthpop"
)

// Plan is what an engine needs that depends only on the placement — the
// population, its rank maps, Ranks and ChareFactor — built once and shared,
// read-only, by every engine New builds from it: repeated runs, sweep
// replicates, fork prefixes and restores. A location's visits are the same
// every day, so their DES event order is computed once per plan — the
// paper's static load model rests on exactly this — and an engine's day
// only fills it: each visit message names the visit's slot, the receiving
// LM writes the day's infectivity and susceptibility into the engine's own
// des.Day, and the DES runs the location's static schedule, in which a slot
// nobody filled today takes no part. Each PM's slot list names, beside every
// slot, its location and the LM managing it, so a kept visit joins its LM's
// batch without a lookup.
//
// The event kernel reads the same location-ordered visits through a second
// index instead of the schedule: each location's visits grouped by
// sublocation, since only visitors of one room can infect each other, and
// each room in arrival order with its longest visit, so that a source meets
// only the members it overlaps in time.
//
// The manager maps are built by NewPlan; the rest on first use, each behind
// its Once, so that engines on one plan may build it concurrently and a plan
// whose runs are all Gillespie never builds the schedule.
type Plan struct {
	pop                      *synthpop.Population
	personRank, locationRank []int32
	ranks, chareFactor       int

	// pmOf / lmOf map persons / locations to their managing chares, lmIndex
	// a location to its index in its manager's locsOfLM list, by which a
	// mixing-mode LM files its replicas.
	pmOf, lmOf, lmIndex   []int32
	personsOfPM, locsOfLM [][]int32

	// The visits in location order (visits), grouped by sublocation within
	// each location in arrival order (rooms), the static schedule with each PM's slot list
	// (schedule), and the fragment families (families).
	visitsOnce sync.Once
	locOffsets []int32
	locVisits  []synthpop.Visit
	roomsOnce  sync.Once
	roomIx     roomIndex
	schedOnce  sync.Once
	sched      *des.Schedule
	pmSlots    [][]slotRef
	fragOnce   sync.Once
	fragments  map[int32][]int32
}

// NewPlan validates cfg's population and rank maps and builds the plan of
// its placement; the rest of cfg is ignored.
func NewPlan(cfg Config) (*Plan, error) {
	if cfg.Population == nil {
		return nil, fmt.Errorf("core: nil population")
	}
	cfg.Ranks, cfg.ChareFactor = max(cfg.Ranks, 1), max(cfg.ChareFactor, 1)
	if err := cfg.Population.Validate(); err != nil {
		return nil, fmt.Errorf("core: population: %w", err)
	}
	pl := &Plan{pop: cfg.Population, personRank: cfg.PersonRank, locationRank: cfg.LocationRank,
		ranks: cfg.Ranks, chareFactor: cfg.ChareFactor}
	ranks, cf := int32(cfg.Ranks), int32(cfg.ChareFactor)
	var err error
	if pl.pmOf, _, pl.personsOfPM, err = assign("person", cfg.Population.NumPersons(), cfg.PersonRank, ranks, cf); err != nil {
		return nil, err
	}
	if pl.lmOf, pl.lmIndex, pl.locsOfLM, err = assign("location", cfg.Population.NumLocations(), cfg.LocationRank, ranks, cf); err != nil {
		return nil, err
	}
	return pl, nil
}

// assign gives n objects their managers in the two-level chare hierarchy
// (Figure 1): object i's is one of the cf managers of its rank — rank[i],
// or i mod ranks when rank is nil — spread by object id. It returns each
// object's manager and index in that manager's list, and the lists.
func assign(what string, n int, rank []int32, ranks, cf int32) (of, index []int32, lists [][]int32, err error) {
	if rank != nil && len(rank) != n {
		return nil, nil, nil, fmt.Errorf("core: %s rank map of length %d, want %d", what, len(rank), n)
	}
	of, index, lists = make([]int32, n), make([]int32, n), make([][]int32, ranks*cf)
	for i := range int32(n) {
		r := i % ranks
		if rank != nil {
			r = rank[i]
		}
		if r < 0 || r >= ranks {
			return nil, nil, nil, fmt.Errorf("core: %s rank %d outside [0,%d)", what, r, ranks)
		}
		m := r*cf + (i/ranks)%cf
		of[i], index[i] = m, int32(len(lists[m]))
		lists[m] = append(lists[m], i)
	}
	return of, index, lists, nil
}

// check returns an error unless cfg names the plan's placement: the same
// population and rank maps (by identity), Ranks and ChareFactor.
func (pl *Plan) check(cfg Config) error {
	same := func(a, b []int32) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	if cfg.Population != pl.pop || !same(cfg.PersonRank, pl.personRank) || !same(cfg.LocationRank, pl.locationRank) ||
		max(cfg.Ranks, 1) != pl.ranks || max(cfg.ChareFactor, 1) != pl.chareFactor {
		return fmt.Errorf("core: config names another population, rank map, Ranks or ChareFactor than its plan")
	}
	return nil
}

// visits returns the visits in location order: location l's are
// visits[offsets[l]:offsets[l+1]], each location's in person order.
func (pl *Plan) visits() (offsets []int32, visits []synthpop.Visit) {
	pl.visitsOnce.Do(func() {
		offsets, order := pl.pop.VisitIndexByLocation()
		pl.locVisits = make([]synthpop.Visit, len(order))
		for s, vi := range order {
			pl.locVisits[s] = pl.pop.Visits[vi]
		}
		pl.locOffsets = offsets
	})
	return pl.locOffsets, pl.locVisits
}

// roomIndex groups each location's visits by sublocation, in arrival
// order. Location l's sublocation s holds the visits
// locVisits[locOffsets[l]+i] for i in order[offsets[base[l]+s]:offsets[base[l]+s+1]],
// ascending by (Start, i): i is a position within the location, so visits
// arriving in one minute keep locVisits order. longest[base[l]+s] is the
// room's longest visit, End-Start, so that a source arriving at minute t
// meets no member arriving at or before t-longest.
type roomIndex struct {
	base    []int32 // location → its first sublocation's entry in offsets
	offsets []int32 // (location, sublocation) → its first entry in order, and one past the last room
	order   []int32 // each location's positions, grouped by sublocation, each room in arrival order
	longest []int16 // (location, sublocation) → its longest visit in minutes
	largest int32   // the most visits at one location
}

// rooms returns the visits grouped by sublocation in arrival order, built by
// two stable counting passes over the location-ordered visits, with no
// comparison sort: the first by start minute writes (room, position) pairs,
// and the second by room reads them in that order. 4 B per visit, 6 B per
// sublocation and 4 B per location.
func (pl *Plan) rooms() *roomIndex {
	pl.roomsOnce.Do(func() {
		offsets, visits := pl.visits()
		ix := &pl.roomIx
		ix.base = make([]int32, len(pl.pop.Locations))
		var subs int32
		for l := range pl.pop.Locations {
			ix.base[l] = subs
			subs += pl.pop.Locations[l].NumSub
			ix.largest = max(ix.largest, offsets[l+1]-offsets[l])
		}
		// Each pass counts its keys into the entry after their own, sums the
		// counts into first entries and advances them past each key's items
		// in order; the room pass then shifts the resulting ends back into
		// starts.
		type roomPos struct{ room, pos int32 }
		var first [24*60 + 1]int32 // a valid visit starts in [0, 24*60)
		ix.offsets = make([]int32, subs+1)
		ix.longest = make([]int16, subs)
		for i := range visits {
			v := &visits[i]
			k := ix.base[v.Loc] + v.Sub
			first[v.Start+1]++
			ix.offsets[k+1]++
			ix.longest[k] = max(ix.longest[k], v.End-v.Start)
		}
		for t := 1; t < len(first); t++ {
			first[t] += first[t-1]
		}
		for k := 1; k <= int(subs); k++ {
			ix.offsets[k] += ix.offsets[k-1]
		}
		byStart := make([]roomPos, len(visits))
		for i := range visits {
			v := &visits[i]
			byStart[first[v.Start]] = roomPos{ix.base[v.Loc] + v.Sub, int32(i) - offsets[v.Loc]}
			first[v.Start]++
		}
		ix.order = make([]int32, len(visits))
		for _, rp := range byStart {
			ix.order[ix.offsets[rp.room]] = rp.pos
			ix.offsets[rp.room]++
		}
		copy(ix.offsets[1:], ix.offsets[:subs])
		ix.offsets[0] = 0
	})
	return &pl.roomIx
}

// schedule returns the static schedule — location l's visits are its slots
// [locOffsets[l], locOffsets[l+1]), numbered in arrival order — and each
// PM's slot list, which names its persons' slots with their locations and
// the locations' LMs in locVisits order: a dense day's person phase.
func (pl *Plan) schedule() (*des.Schedule, [][]slotRef) {
	pl.schedOnce.Do(func() {
		offsets, visits := pl.visits()
		slots := make([]des.Visitor, len(visits))
		size := make([]int, len(pl.personsOfPM))
		for i := range pl.pop.Visits {
			size[pl.pmOf[pl.pop.Visits[i].Person]]++
		}
		pl.pmSlots = make([][]slotRef, len(size))
		for pm, n := range size {
			pl.pmSlots[pm] = make([]slotRef, 0, n)
		}
		for s := range visits {
			v := &visits[s]
			slots[s] = des.Visitor{Person: v.Person, Sub: v.Sub, OrigSub: pl.pop.Locations[v.Loc].SubBase + v.Sub,
				Start: v.Start, End: v.End}
			pm := pl.pmOf[v.Person]
			pl.pmSlots[pm] = append(pl.pmSlots[pm], slotRef{int32(s), v.Loc, v.Person, pl.lmOf[v.Loc]})
		}
		var renumber []int32
		pl.sched, renumber = des.NewSchedule(slots, offsets)
		for _, refs := range pl.pmSlots {
			for i := range refs {
				refs[i].slot = renumber[refs[i].slot]
			}
		}
	})
	return pl.sched, pl.pmSlots
}

// families maps an original location id to all fragment location ids of
// its family, for the entries with more than one: mixing mode replicates
// infectious visitors across them.
func (pl *Plan) families() map[int32][]int32 {
	pl.fragOnce.Do(func() {
		pl.fragments = make(map[int32][]int32)
		for l := range int32(pl.pop.NumLocations()) {
			origin := pl.pop.Locations[l].Origin
			pl.fragments[origin] = append(pl.fragments[origin], l)
		}
		for origin, ids := range pl.fragments {
			if len(ids) == 1 {
				delete(pl.fragments, origin)
			}
		}
	})
	return pl.fragments
}

// visitIndex gives the engine the plan's location-ordered visits.
func (e *Engine) visitIndex() {
	if e.locOffsets == nil {
		e.locOffsets, e.locVisits = e.plan.visits()
	}
}

// beginLocationDay opens a day that runs a location phase, fetching the
// plan's schedule and opening the engine's fill of it on the first.
func (e *Engine) beginLocationDay() {
	if e.day == nil {
		e.visitIndex()
		e.sched, e.pmSlots = e.plan.schedule()
		e.day = e.sched.NewDay()
	}
	e.day.NextDay()
}
