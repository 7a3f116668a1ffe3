// Package des implements the per-location sequential discrete-event
// simulation of EpiSimdemics (Section II-B, step 3): every visit a location
// receives is an arrive and a depart event, events are executed in time
// order while tracking sublocation occupancy, and each co-presence of a
// susceptible and an infectious person triggers a transmission trial.
// Successful trials yield the "infect" messages sent back to person objects.
//
// The package also produces the event and interaction counts that feed the
// static and dynamic workload models of Section III-A, and its execution
// time is what the load model is fitted against (Figure 3(a)).
//
// A location's visits are the same every day — only who is infectious or
// susceptible, and which visits the behavioural filters drop, change — so
// its event order is static, the premise of the paper's static load model.
// A Schedule computes that order once, by counting passes: each location
// its events in (minute, depart before arrive, visit) order, its slots
// numbered in arrival order (the numbering is the schedule's, so the walk
// reads slots at increasing addresses), its occupancy groups by
// sublocation, each listing its slots in arrival order, and a full day's
// Interactions. It is read-only from then on, and runs share it: each fills
// its own Day with the slots that visit today and their visitors'
// infectivity and susceptibility (Fill). On a full day — every slot filled,
// no extras — Day.Simulate takes the counters from the schedule and the
// trials from the infectious visitors alone; else it walks the location's
// static order, skipping slots not filled today (a departure reads no
// slot). Extras, visitors the schedule does not hold (in the engine,
// mixing-mode replicas of another fragment's infectious visitors), are
// sorted per call and merged into the walk. Simulate is the same walk over
// an empty schedule, every visitor an extra.
//
// Every co-present pair is counted (Result.Interactions), but only
// susceptible–infectious pairs are tried: in the walk each occupancy group
// keeps its present infectious and susceptible visitors apart, and an
// arrival walks only the list it can exchange the disease with. Both paths
// try the same pairs with the same keyed draws. A trial's exponential is
// paid only by a draw under a cheap bound of its probability; its key's
// prefix is hashed once per location-day and, on a full day outside mixing
// mode, once per infectious visitor. The scratch lives in unexported fields
// of the Result the caller passes, so a caller that reuses one Result
// (Reset keeps capacity) does not allocate.
package des

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/xrand"
)

// Visitor is one visit at the location being simulated, annotated with the
// visitor's effective disease parameters for the day. Exactly one of
// Infectivity/Susceptibility is typically non-zero; both zero means the
// person can neither infect nor be infected today (latent, recovered).
type Visitor struct {
	Person int32
	Sub    int32 // sublocation index within this location
	// OrigSub is the visitor's sublocation in the pre-splitLoc numbering
	// of the original location. Only consulted in mixing mode (Params.
	// Mixing > 0), where it both groups occupancy and keys trials so that
	// retain-edges splitting with infectious replication reproduces the
	// unsplit outcome exactly. May lie outside this fragment's local
	// range for replicated infectious visitors.
	OrigSub        int32
	Start, End     int16 // minutes of day, [Start, End)
	Infectivity    float64
	Susceptibility float64
}

// Infection is a successful transmission: an "infect" message.
type Infection struct {
	Person   int32 // newly infected person
	Infector int32
	Minute   int16 // co-presence start: when exposure began
}

// Params identifies the location and day being simulated, for keyed draws.
type Params struct {
	Day uint64
	// LocKey identifies the location *stably across splitLoc*: split
	// fragments pass the original location id, so splitting cannot change
	// any transmission outcome (the correctness oracle of the repo).
	LocKey uint64
	// SubBase offsets this fragment's sublocation indices into the
	// original location's sublocation numbering.
	SubBase int32
	// Tau is the disease transmissibility (τ in the transmission function).
	Tau float64
	// Mixing enables the inter-sublocation mixing model of the paper's
	// future work (Section III-C, "elevators and hallways"): co-present
	// people in *different* sublocations of the same location also
	// interact, with transmission probability scaled by this factor
	// (0 disables; 1 makes rooms irrelevant). In mixing mode everybody at
	// the location shares one occupancy group and Visitor.OrigSub picks
	// the scale of each trial.
	Mixing float64
}

// Result accumulates the outcome and the workload counters of one
// location-day.
type Result struct {
	Infections []Infection
	// Events is the number of arrive+depart events (2 × visits): the X
	// input of the static load model.
	Events int
	// Interactions is the number of co-present person pairs (any health
	// states) — the "sum of interactions" input of the dynamic load model.
	// A Schedule's full day counts what NewSchedule recorded.
	Interactions int64
	// Trials is the number of susceptible–infectious pairs that underwent
	// a transmission trial.
	Trials int64
	// ContactMinutes sums pairwise overlap durations over all trials.
	ContactMinutes int64
	// SumReciprocal sums 1/(pair overlap) over trials — the "sum of the
	// reciprocal of interactions" term of the dynamic model, in an
	// unspecified order (the tests compare it to a relative 1e-9).
	SumReciprocal float64

	// The walk's scratch, meaningless between calls. keys holds the
	// extras' group ranking, then their events and any merged walk;
	// lists[side] is carved into one window per occupancy group.
	keys   []uint64
	vis    []visitorState
	groups []groupState
	lists  [2][]int32
}

// Reset clears the result for reuse, keeping allocated capacity (the
// scratch included).
func (r *Result) Reset() {
	r.Infections = r.Infections[:0]
	r.Events = 0
	r.Interactions = 0
	r.Trials = 0
	r.ContactMinutes = 0
	r.SumReciprocal = 0
}

// The two sides of a transmission trial, indexing Result.lists,
// visitorState.pos and groupState.n.
const (
	infectious = iota
	susceptible
)

// visitorState is one visitor's place in the occupancy bookkeeping.
type visitorState struct {
	group   int32    // dense occupancy group
	pos     [2]int32 // index in the group's list of each side it is on
	present bool     // arrived and not yet departed
	on      [2]bool  // the sides it is on, set at arrival
}

// groupState is one occupancy group: how many visitors are present, and
// which of them are infectious or susceptible. Its window of lists[side]
// starts at off and is as long as the group can have members, so it
// cannot overflow.
type groupState struct {
	off   int32
	count int32
	n     [2]int32
}

// An event is one uint64 ordered by (minute, depart before arrive, visitor
// index), so a location's events sort as plain integers. Departures sort
// before arrivals at the same minute so that touching intervals ([a,b) then
// [b,c)) never interact; the order among same-minute arrivals decides only
// which of two visitors "meets" the other, never whether or when they meet.
// The index keeps all 32 bits: there is no cap on visitors per call.
const arriveBit = 1 << 32

func eventKey(minute int16, arrive uint64, idx int) uint64 {
	// Flipping the sign bit orders negative minutes first, as int16 does.
	return uint64(uint16(minute)^0x8000)<<33 | arrive | uint64(uint32(idx))
}

// Schedule is the static event order of a set of locations, built once by
// NewSchedule and read-only after.
type Schedule struct {
	// slots are the visits' static fields, location l's at [offsets[l],
	// offsets[l+1]) in arrival order.
	slots   []slot
	offsets []int32
	// events holds location l's arrive and depart keys at [2*offsets[l],
	// 2*offsets[l+1]), in order but for same-minute departures, whose
	// renumbered indices need not ascend; indices count from the location's
	// first slot, below any extra's.
	events []uint64
	// Location l's sublocation g is group k = groupOff[l]+g, whose slots
	// (counted from the location's first) are bySub[groupStart[k]:
	// groupStart[k+1]], in arrival order.
	bySub      []int32
	groupStart []int32
	groupOff   []int32
	// interactions[2*l] is location l's full-day Interactions, and
	// interactions[2*l+1] the same in mixing mode.
	interactions []int64
}

// slot is a visit's static fields, a Visitor's but for the infectivity and
// susceptibility, which a Day holds for the slots of a Schedule.
type slot struct {
	person, sub, origSub int32
	start, end           int16
}

// NewSchedule builds the static schedule of len(offsets)-1 locations.
// Location l's visits are slots[offsets[l]:offsets[l+1]] with their static
// fields set (Person, Sub, OrigSub, Start, End). The schedule numbers each
// location's slots, within its range, in the order they arrive: the visit
// at slots[i] is the slot renumber[i] that Fill and Visit take. The build
// is O(visits + locations) counting passes, with no comparison sort; it
// keeps offsets but not slots. It also records what every full day
// repeats: each sublocation's slots in arrival order, and the Interactions
// with and without mixing. Every visit must satisfy 0 ≤ Start, End ≤ 1440
// and Sub ≥ 0; one with End ≤ Start never leaves, as in Simulate.
func NewSchedule(slots []Visitor, offsets []int32) (s *Schedule, renumber []int32) {
	nl := len(offsets) - 1
	s = &Schedule{
		slots:        make([]slot, len(slots)),
		offsets:      offsets,
		events:       make([]uint64, 2*len(slots)),
		bySub:        make([]int32, len(slots)),
		groupStart:   []int32{0},
		groupOff:     make([]int32, nl+1),
		interactions: make([]int64, 2*nl),
	}
	renumber = make([]int32, len(slots))

	// Each location's events, written in slot order, then sorted by two
	// stable counting passes over the 12-bit (minute, depart before arrive)
	// field, six bits at a time: (minute, depart before arrive, slot) order,
	// kept while arrivals renumber the slots.
	var tmp []uint64
	var next, present []int32
	for l := range nl {
		lo, hi := offsets[l], offsets[l+1]
		events := s.events[2*lo : 2*hi]
		base := int32(len(s.groupStart)) // group g's size, then its end, at base+g
		for i := lo; i < hi; i++ {
			v := &slots[i]
			events[2*(i-lo)] = eventKey(v.End, 0, int(i-lo))
			events[2*(i-lo)+1] = eventKey(v.Start, arriveBit, int(i-lo))
			for int32(len(s.groupStart)) <= base+v.Sub {
				s.groupStart = append(s.groupStart, 0)
			}
			s.groupStart[base+v.Sub]++
		}
		groups := int32(len(s.groupStart)) - base
		s.groupOff[l+1] = s.groupOff[l] + groups
		for k := base; k < base+groups; k++ {
			s.groupStart[k] += s.groupStart[k-1]
		}
		tmp = slices.Grow(tmp[:0], len(events))[:len(events)]
		countingPass(events, tmp, 32)
		countingPass(tmp, events, 38)

		local, arrival := renumber[lo:hi], lo
		for _, k := range events {
			if k&arriveBit != 0 {
				local[uint32(k)] = arrival
				arrival++
			}
		}
		// Renamed, the events place each group's slots in arrival order and
		// count a full day's Interactions as the walk does: a departure
		// before its arrival (slots arrive in number order) is a no-op.
		next = append(next[:0], s.groupStart[base-1:base-1+groups]...)
		present = append(present[:0], make([]int32, groups)...)
		var arrived, left int32
		for j, k := range events {
			i, g := local[uint32(k)]-lo, slots[lo+int32(uint32(k))].Sub
			events[j] = k&^(1<<32-1) | uint64(i)
			switch {
			case k&arriveBit != 0:
				s.interactions[2*l] += int64(present[g])
				s.interactions[2*l+1] += int64(arrived - left)
				s.bySub[next[g]] = i
				next[g]++
				present[g]++
				arrived++
			case i < arrived:
				present[g]--
				left++
			}
		}
		for i, v := range slots[lo:hi] {
			s.slots[local[i]] = slot{v.Person, v.Sub, v.OrigSub, v.Start, v.End}
		}
	}
	return s, renumber
}

// countingPass stably sorts src into dst by the six key bits from shift.
func countingPass(src, dst []uint64, shift uint) {
	var start [64]int32
	for _, k := range src {
		start[k>>shift&63]++
	}
	var sum int32
	for d, c := range start {
		start[d] = sum
		sum += c
	}
	for _, k := range src {
		d := k >> shift & 63
		dst[start[d]] = k
		start[d]++
	}
}

// Day is one run's fill of a Schedule: which slots visit today, and with
// what infectivity and susceptibility. Runs sharing a Schedule each fill
// their own Day.
type Day struct {
	s        *Schedule
	stamps   []uint32
	today    uint32
	inf, sus []float64
}

// NewDay returns an empty fill of s.
func (s *Schedule) NewDay() *Day {
	n := len(s.slots)
	return &Day{s: s, stamps: make([]uint32, n), inf: make([]float64, n), sus: make([]float64, n)}
}

// NextDay opens a new day: no slot visits until Fill stamps it.
func (d *Day) NextDay() { d.today++ }

// Fill records that the visit in slot happens today, with the visitor's
// effective infectivity and susceptibility.
func (d *Day) Fill(slot int32, inf, sus float64) {
	d.inf[slot], d.sus[slot] = inf, sus
	d.stamps[slot] = d.today
}

// Visit returns the static fields of the visit in slot, with zero
// infectivity and susceptibility.
func (s *Schedule) Visit(slot int32) Visitor {
	v := &s.slots[slot]
	return Visitor{Person: v.person, Sub: v.sub, OrigSub: v.origSub, Start: v.start, End: v.end}
}

// Simulate executes location loc's DES for today — its slots filled since
// NextDay, plus extras, visitors the schedule does not hold — and appends
// the outcome to out, as the package-level Simulate does.
func (d *Day) Simulate(loc int32, extras []Visitor, p Params, out *Result) {
	if len(extras) == 0 && d.simulateFull(loc, &p, out) {
		return
	}
	s := d.s
	lo, hi := s.offsets[loc], s.offsets[loc+1]
	simulate(schedule{
		slots:  s.slots[lo:hi],
		stamps: d.stamps[lo:hi],
		inf:    d.inf[lo:hi],
		sus:    d.sus[lo:hi],
		today:  d.today,
		events: s.events[2*lo : 2*hi],
		groups: s.groupStart[s.groupOff[loc] : s.groupOff[loc+1]+1],
	}, extras, &p, out)
}

// simulateFull runs location loc's DES, without extras, if every one of its
// slots visits today, and reports whether it did. Each infectious slot scans
// its group in arrival order up to the first member who arrives after it
// leaves, and tries every other susceptible member it overlaps, at the
// later arrival's minute: the walk's pairs exactly, as the walk tries a
// co-present pair once, when the second arrives, touching intervals never
// meet, and a visitor on both sides is tried both ways.
func (d *Day) simulateFull(loc int32, p *Params, out *Result) bool {
	s := d.s
	lo, hi := s.offsets[loc], s.offsets[loc+1]
	for _, stamp := range d.stamps[lo:hi] {
		if stamp != d.today {
			return false
		}
	}
	slots, inf, sus := s.slots[lo:hi], d.inf[lo:hi], d.sus[lo:hi]
	mixing, grouping := p.Mixing > 0, 2*loc
	if mixing {
		grouping++
	}
	out.Events += 2 * len(slots)
	out.Interactions += s.interactions[grouping]
	first := len(out.Infections)
	h := xrand.Hash(0x1fec7, p.Day, p.LocKey)
	groups := s.groupStart[s.groupOff[loc]:]
	for i := range int32(len(slots)) {
		if inf[i] <= 0 {
			continue
		}
		src := &slots[i]
		// In mixing mode the group is every slot, numbered in arrival order;
		// otherwise it is src's sublocation, whose subkey every draw shares.
		members, n := s.bySub[groups[src.sub]:groups[src.sub+1]], len(slots)
		if !mixing {
			n = len(members)
		}
		scale, hs := drawKey(src, src, p, h)
		for k := range n {
			j := int32(k)
			if !mixing {
				j = members[k]
			}
			dst := &slots[j]
			if dst.start >= src.end {
				break
			}
			at, end := max(src.start, dst.start), min(src.end, dst.end)
			if j == i || sus[j] <= 0 || at >= end {
				continue
			}
			if mixing {
				scale, hs = drawKey(src, dst, p, h)
			}
			trial(src, dst, inf[i], sus[j], at, int(end-at), scale, hs, p, out)
		}
	}
	canonicalize(out, first)
	return true
}

// Simulate executes the location-day DES of visitors and appends the
// outcome to out: counters are added to, and the infections found are
// appended behind those already there, which are left untouched. The
// appended infections are deduplicated per person (earliest exposure wins,
// ties broken by smallest infector id) and sorted by person, so they are a
// canonical set that does not depend on visitor ordering.
//
// Visits are expected to satisfy 0 ≤ Start < End ≤ 1440 (what
// synthpop.Validate enforces). A visit with End ≤ Start never leaves: its
// departure finds it absent and is a no-op, so from Start on it is counted
// in the Interactions of every later arrival in its group, but it has no
// positive overlap with anybody and enters no trial.
func Simulate(visitors []Visitor, p Params, out *Result) {
	simulate(schedule{}, visitors, &p, out)
}

// schedule is one location's part of a Schedule and its Day; group g has
// groups[g+1]-groups[g] slots.
type schedule struct {
	slots    []slot
	stamps   []uint32
	inf, sus []float64
	today    uint32
	events   []uint64
	groups   []int32
}

// visitor returns the static fields, infectivity and susceptibility of the
// visitor with walk index i: a slot, or an extra numbered after the slots.
func (s *schedule) visitor(i int32, extras []Visitor) (v slot, inf, sus float64) {
	if int(i) < len(s.slots) {
		return s.slots[i], s.inf[i], s.sus[i]
	}
	x := &extras[int(i)-len(s.slots)]
	return slot{x.Person, x.Sub, x.OrigSub, x.Start, x.End}, x.Infectivity, x.Susceptibility
}

// simulate is the one event walk: s's static order merged with the
// extras' sorted events.
func simulate(s schedule, extras []Visitor, p *Params, out *Result) {
	n, m := len(s.slots), len(extras)
	out.Events += 2 * m
	if n == 0 && m < 2 {
		return
	}
	out.vis = slices.Grow(out.vis[:0], n+m)[:n+m]
	clear(out.vis)
	for side := range out.lists {
		out.lists[side] = slices.Grow(out.lists[side][:0], n+m)[:n+m]
	}
	vis, groups, keys := out.vis, out.groups[:0], out.keys[:0]
	mixing := p.Mixing > 0

	// Occupancy groups, sized first and then given consecutive windows. In
	// mixing mode everybody at the location interacts, so there is one
	// group. Otherwise a group is a sublocation: scheduled sublocation g is
	// group g, and sorting (Sub, index) brings the extras of each
	// sublocation together — into a scheduled group, or a new one, whatever
	// int32 values Sub takes.
	if mixing {
		groups = append(groups, groupState{off: int32(n + m)})
	} else {
		for g := 1; g < len(s.groups); g++ {
			groups = append(groups, groupState{off: s.groups[g] - s.groups[g-1]})
		}
		for j := range extras {
			keys = append(keys, uint64(uint32(extras[j].Sub))<<32|uint64(n+j))
		}
		slices.Sort(keys)
		scheduled := uint64(len(groups))
		for k, key := range keys {
			g := key >> 32
			if g >= scheduled {
				if k == 0 || g != keys[k-1]>>32 {
					groups = append(groups, groupState{})
				}
				g = uint64(len(groups) - 1)
			}
			groups[g].off++
			vis[uint32(key)].group = int32(g)
		}
		keys = keys[:0]
	}
	var off int32
	for g := range groups {
		size := groups[g].off
		groups[g].off = off
		off += size
	}

	// The walk: the static order, the extras' sorted events, or both merged
	// behind the latter.
	walk := s.events
	if m > 0 {
		for j := range extras {
			keys = append(keys, eventKey(extras[j].Start, arriveBit, n+j), eventKey(extras[j].End, 0, n+j))
		}
		slices.Sort(keys)
		walk = keys
		if n > 0 {
			x := len(keys)
			keys = slices.Grow(keys, x+len(s.events))[:2*x+len(s.events)]
			walk = keys[x:]
			for k, i, j := 0, 0, 0; k < len(walk); k++ {
				if j == x || (i < len(s.events) && s.events[i] < keys[j]) {
					walk[k] = s.events[i]
					i++
				} else {
					walk[k] = keys[j]
					j++
				}
			}
		}
	}

	first := len(out.Infections)
	h := xrand.Hash(0x1fec7, p.Day, p.LocKey) // every trial's key prefix
	for _, key := range walk {
		idx := int32(uint32(key))
		st := &vis[idx]
		if key&arriveBit == 0 { // a slot not filled today never arrived
			if !st.present {
				continue
			}
			st.present = false
			g := &groups[st.group]
			g.count--
			for side, member := range st.on {
				if member {
					// Swap-remove: the group's last member of this side
					// takes v's slot.
					list := out.lists[side][g.off:]
					g.n[side]--
					moved := list[g.n[side]]
					list[st.pos[side]] = moved
					vis[moved].pos[side] = st.pos[side]
				}
			}
			continue
		}
		if int(idx) < n && s.stamps[idx] != s.today {
			continue
		}
		v, inf, sus := s.visitor(idx, extras)
		st.on = [2]bool{infectious: inf > 0, susceptible: sus > 0}
		if int(idx) < n {
			out.Events += 2
			if !mixing {
				st.group = v.sub
			}
		}
		g := &groups[st.group]
		out.Interactions += int64(g.count)
		if st.on[infectious] {
			for _, o := range out.lists[susceptible][g.off : g.off+g.n[susceptible]] {
				w, _, wSus := s.visitor(o, extras)
				tryInfect(&v, &w, inf, wSus, v.start, p, h, out)
			}
		}
		if st.on[susceptible] {
			for _, o := range out.lists[infectious][g.off : g.off+g.n[infectious]] {
				w, wInf, _ := s.visitor(o, extras)
				tryInfect(&w, &v, wInf, sus, v.start, p, h, out)
			}
		}
		st.present = true
		g.count++
		for side, member := range st.on {
			if member {
				st.pos[side] = g.n[side]
				out.lists[side][g.off+g.n[side]] = idx
				g.n[side]++
			}
		}
	}
	out.groups, out.keys = groups, keys[:0]
	canonicalize(out, first)
}

// canonicalize turns the infections appended from first on into a
// canonical set: each person's earliest exposure, in person order.
func canonicalize(out *Result, first int) {
	found := out.Infections[first:]
	if len(found) > 1 {
		slices.SortFunc(found, func(a, b Infection) int {
			return cmp.Or(cmp.Compare(a.Person, b.Person), cmp.Compare(a.Minute, b.Minute), cmp.Compare(a.Infector, b.Infector))
		})
		found = slices.CompactFunc(found, func(a, b Infection) bool { return a.Person == b.Person })
		out.Infections = out.Infections[:first+len(found)]
	}
}

// tryInfect runs the walk's trial from src, of infectivity inf, to dst, of
// susceptibility sus, at minute at, if they overlap.
func tryInfect(src, dst *slot, inf, sus float64, at int16, p *Params, h uint64, out *Result) {
	if overlapMin := int(min(src.end, dst.end)) - int(at); overlapMin > 0 {
		scale, hs := drawKey(src, dst, p, h)
		trial(src, dst, inf, sus, at, overlapMin, scale, hs, p, out)
	}
}

// drawKey returns the probability scale of a trial from src to dst and its
// draw's key prefix: h, which hashes (0x1fec7, Day, LocKey), folded over the
// subkey and src.person. In mixing mode contact across original
// sublocations scales the transmission probability by the mixing factor.
//
// The draw is keyed by content only — day, original location id, original
// sublocations, the pair, and the overlap start — never by execution order,
// so outcomes survive any re-partitioning (and, in mixing mode, survive
// retain-edges splitting with replication).
func drawKey(src, dst *slot, p *Params, h uint64) (scale float64, hs uint64) {
	scale, subKey := 1.0, uint64(p.SubBase+dst.sub)
	if p.Mixing > 0 {
		subKey = xrand.Hash(uint64(src.origSub), uint64(dst.origSub))
		if src.origSub != dst.origSub {
			scale = p.Mixing
		}
	}
	return scale, xrand.Fold(h, subKey, uint64(src.person))
}

// trial runs one directed transmission trial from src, of infectivity inf,
// to dst, of susceptibility sus, who are co-present for overlapMin > 0
// minutes from minute at, with the scale and key prefix drawKey returned,
// and appends a successful one to out.Infections.
func trial(src, dst *slot, inf, sus float64, at int16, overlapMin int, scale float64, hs uint64, p *Params, out *Result) {
	out.Trials++
	out.ContactMinutes += int64(overlapMin)
	if overlapMin < len(reciprocals) {
		out.SumReciprocal += reciprocals[overlapMin]
	} else {
		out.SumReciprocal += 1 / float64(overlapMin)
	}
	// KeyedFloat64(0x1fec7, Day, LocKey, subKey, src, dst, at); hs hashes
	// the first five.
	u := float64(xrand.Fold(hs, uint64(dst.person), uint64(at))>>11) / (1 << 53)
	if u >= trialBound(scale, p.Tau, inf, sus, overlapMin) {
		return
	}
	if u < scale*transmissionProb(p.Tau, inf, sus, overlapMin) {
		out.Infections = append(out.Infections, Infection{Person: dst.person, Infector: src.person, Minute: at})
	}
}

// trialBound is ≥ scale*transmissionProb(tau, inf, sus, durMin) for scale
// ≥ 0 and positive inf, sus and durMin, without an exponential: 1-e^(-y) ≤
// y for real y, math.Exp errs by under one ulp, and the margins cover the
// rounding (TestTrialBoundCoversProb). A NaN bound rejects nothing.
func trialBound(scale, tau, inf, sus float64, durMin int) float64 {
	y := tau * inf * sus * float64(durMin) // transmissionProb's order
	return scale*y*(1+0x1p-30) + 0x1p-40
}

// reciprocals[i] is 1/float64(i), for overlaps within one day.
var reciprocals = func() (r [1441]float64) {
	for i := range r {
		r[i] = 1 / float64(i)
	}
	return r
}()

// transmissionProb mirrors disease.Model.TransmissionProb; duplicated here
// (a one-line formula) to keep des free of the disease package so the two
// substrates stay independently testable;
// TestTransmissionProbMatchesDiseaseModel holds the two equal.
func transmissionProb(tau, inf, sus float64, durMin int) float64 {
	if durMin <= 0 || inf <= 0 || sus <= 0 {
		return 0
	}
	return 1 - math.Exp(-tau*inf*sus*float64(durMin))
}
