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
// A Schedule computes that order once, by counting passes: every visit gets
// a slot in its location's range, each location its events in (minute,
// depart before arrive, slot) order and its occupancy groups by
// sublocation. A day fills the slots that visit (Fill), and
// Schedule.Simulate walks the location's static order, skipping slots not
// filled today. Visitors the schedule does not hold — in the engine, the
// mixing-mode replicas of another fragment's infectious visitors — are
// extras: sorted per call and merged into the walk. Simulate is the same
// walk over an empty schedule, every visitor an extra.
//
// Every co-present pair is counted (Result.Interactions), but only
// susceptible–infectious pairs are tried: each occupancy group keeps its
// present infectious and susceptible visitors apart, and an arrival walks
// only the list it can exchange the disease with. The walk's working memory
// lives in unexported fields of the Result the caller passes, so a caller
// that reuses one Result (Reset keeps capacity) simulates location-days
// without allocating.
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
	// Interactions is the number of co-present person pairs examined
	// (any health states) — the "sum of interactions" input of the dynamic
	// load model.
	Interactions int64
	// Trials is the number of susceptible–infectious pairs that underwent
	// a transmission trial.
	Trials int64
	// ContactMinutes sums pairwise overlap durations over all trials.
	ContactMinutes int64
	// SumReciprocal sums 1/(pair overlap) over trials — the "sum of the
	// reciprocal of interactions" term of the dynamic model.
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
// NewSchedule, and the current day's fill of its slots.
type Schedule struct {
	// slots are the visits, location l's at [offsets[l], offsets[l+1]).
	// Fill writes a slot's Infectivity and Susceptibility and stamps it
	// with today; only slots stamped today visit.
	slots   []Visitor
	stamps  []uint32
	today   uint32
	offsets []int32
	// events holds location l's arrive and depart keys, in order, at
	// [2*offsets[l], 2*offsets[l+1]); their indices count from the
	// location's first slot.
	events []uint64
	// members[groupOff[l]+g] is the number of location l's slots in
	// sublocation g: the size of occupancy group g's window.
	members  []int32
	groupOff []int32
}

// NewSchedule builds the static schedule of len(offsets)-1 locations.
// Location l's visits are slots[offsets[l]:offsets[l+1]] with their static
// fields set (Person, Sub, OrigSub, Start, End); a slot is an index into
// slots. The build is O(visits + locations) counting passes, with no
// comparison sort, and takes ownership of slots. Every visit must satisfy
// 0 ≤ Start < End ≤ 1440 and Sub ≥ 0 (what synthpop.Validate enforces).
func NewSchedule(slots []Visitor, offsets []int32) *Schedule {
	nl := len(offsets) - 1
	s := &Schedule{
		slots:    slots,
		stamps:   make([]uint32, len(slots)),
		offsets:  offsets,
		events:   make([]uint64, 2*len(slots)),
		groupOff: make([]int32, nl+1),
	}

	// Each location's events, written in slot order, then sorted by two
	// stable counting passes over the 12-bit (minute, depart before arrive)
	// field, six bits at a time: (minute, depart before arrive, slot) order.
	var tmp []uint64
	for l := range nl {
		lo, hi := offsets[l], offsets[l+1]
		events := s.events[2*lo : 2*hi]
		groups := int32(0)
		for i := lo; i < hi; i++ {
			v := &slots[i]
			events[2*(i-lo)] = eventKey(v.End, 0, int(i-lo))
			events[2*(i-lo)+1] = eventKey(v.Start, arriveBit, int(i-lo))
			groups = max(groups, v.Sub+1)
		}
		s.groupOff[l+1] = s.groupOff[l] + groups
		tmp = slices.Grow(tmp[:0], len(events))[:len(events)]
		countingPass(events, tmp, 32)
		countingPass(tmp, events, 38)
	}

	s.members = make([]int32, s.groupOff[nl])
	for l := range nl {
		for i := offsets[l]; i < offsets[l+1]; i++ {
			s.members[s.groupOff[l]+slots[i].Sub]++
		}
	}
	return s
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

// NextDay opens a new day: no slot visits until Fill stamps it.
func (s *Schedule) NextDay() { s.today++ }

// Fill records that the visit in slot happens today, with the visitor's
// effective infectivity and susceptibility.
func (s *Schedule) Fill(slot int32, inf, sus float64) {
	v := &s.slots[slot]
	v.Infectivity, v.Susceptibility = inf, sus
	s.stamps[slot] = s.today
}

// Visit returns the static fields of the visit in slot, with zero
// infectivity and susceptibility. It reads nothing Fill writes, so it may
// run concurrently with a Fill of the same slot.
func (s *Schedule) Visit(slot int32) Visitor {
	v := &s.slots[slot]
	return Visitor{Person: v.Person, Sub: v.Sub, OrigSub: v.OrigSub, Start: v.Start, End: v.End}
}

// Simulate executes location loc's DES for today — its slots filled since
// NextDay, plus extras, visitors the schedule does not hold — and appends
// the outcome to out, as the package-level Simulate does.
func (s *Schedule) Simulate(loc int32, extras []Visitor, p Params, out *Result) {
	lo, hi := s.offsets[loc], s.offsets[loc+1]
	simulate(schedule{
		slots:   s.slots[lo:hi],
		stamps:  s.stamps[lo:hi],
		today:   s.today,
		events:  s.events[2*lo : 2*hi],
		members: s.members[s.groupOff[loc]:s.groupOff[loc+1]],
	}, extras, &p, out)
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

// schedule is one location's part of a Schedule.
type schedule struct {
	slots   []Visitor
	stamps  []uint32
	today   uint32
	events  []uint64
	members []int32
}

// visitor returns the visitor with walk index i: a slot, or an extra
// numbered after the slots.
func (s *schedule) visitor(i int32, extras []Visitor) *Visitor {
	if int(i) < len(s.slots) {
		return &s.slots[i]
	}
	return &extras[int(i)-len(s.slots)]
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
		for _, c := range s.members {
			groups = append(groups, groupState{off: c})
		}
		for j := range extras {
			keys = append(keys, uint64(uint32(extras[j].Sub))<<32|uint64(n+j))
		}
		slices.Sort(keys)
		scheduled := uint64(len(s.members))
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
	for _, key := range walk {
		idx := int32(uint32(key))
		if int(idx) < n && s.stamps[idx] != s.today {
			continue
		}
		v, st := s.visitor(idx, extras), &vis[idx]
		on := [2]bool{infectious: v.Infectivity > 0, susceptible: v.Susceptibility > 0}
		if key&arriveBit == 0 {
			if !st.present {
				continue
			}
			st.present = false
			g := &groups[st.group]
			g.count--
			for side, member := range on {
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
		if int(idx) < n {
			out.Events += 2
			if !mixing {
				st.group = v.Sub
			}
		}
		g := &groups[st.group]
		out.Interactions += int64(g.count)
		if on[infectious] {
			for _, o := range out.lists[susceptible][g.off : g.off+g.n[susceptible]] {
				tryInfect(v, s.visitor(o, extras), v.Start, p, out)
			}
		}
		if on[susceptible] {
			for _, o := range out.lists[infectious][g.off : g.off+g.n[infectious]] {
				tryInfect(s.visitor(o, extras), v, v.Start, p, out)
			}
		}
		st.present = true
		g.count++
		for side, member := range on {
			if member {
				st.pos[side] = g.n[side]
				out.lists[side][g.off+g.n[side]] = idx
				g.n[side]++
			}
		}
	}
	out.groups, out.keys = groups, keys[:0]

	// Canonical set: each person's earliest exposure, in person order.
	found := out.Infections[first:]
	if len(found) > 1 {
		slices.SortFunc(found, func(a, b Infection) int {
			return cmp.Or(cmp.Compare(a.Person, b.Person), cmp.Compare(a.Minute, b.Minute), cmp.Compare(a.Infector, b.Infector))
		})
		found = slices.CompactFunc(found, func(a, b Infection) bool { return a.Person == b.Person })
		out.Infections = out.Infections[:first+len(found)]
	}
}

// tryInfect runs one directed transmission trial from infectious src to
// susceptible dst, who are co-present from minute at until the earlier of
// their departures, and appends a successful one to out.Infections. In
// mixing mode contact across original sublocations scales the
// transmission probability by the mixing factor.
func tryInfect(src, dst *Visitor, at int16, p *Params, out *Result) {
	overlapMin := int(min(src.End, dst.End)) - int(at)
	if overlapMin <= 0 {
		return
	}
	out.Trials++
	out.ContactMinutes += int64(overlapMin)
	out.SumReciprocal += 1 / float64(overlapMin)
	// The draw is keyed by content only — day, original location id,
	// original sublocations, the pair, and the overlap start — never by
	// execution order, so outcomes survive any re-partitioning (and, in
	// mixing mode, survive retain-edges splitting with replication).
	scale, subKey := 1.0, uint64(p.SubBase+dst.Sub)
	if p.Mixing > 0 {
		subKey = xrand.Hash(uint64(src.OrigSub), uint64(dst.OrigSub))
		if src.OrigSub != dst.OrigSub {
			scale = p.Mixing
		}
	}
	prob := scale * transmissionProb(p.Tau, src.Infectivity, dst.Susceptibility, overlapMin)
	u := xrand.KeyedFloat64(0x1fec7, p.Day, p.LocKey,
		subKey, uint64(src.Person), uint64(dst.Person), uint64(at))
	if u < prob {
		out.Infections = append(out.Infections, Infection{Person: dst.Person, Infector: src.Person, Minute: at})
	}
}

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
