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
// numbered in arrival order, its occupancy groups by sublocation, each
// listing its slots in arrival order, its longest visit, and a full day's
// Interactions. It is read-only from then on, and runs share it: each fills
// its own Day with the slots that visit today and their visitors'
// infectivity and susceptibility (Fill). Extras, visitors the schedule does
// not hold (in the engine, mixing-mode replicas of another fragment's
// infectious visitors), are sorted per call. Simulate is Day.Simulate over
// an empty schedule, every visitor an extra.
//
// Every co-present pair is counted (Result.Interactions): on a full day —
// every slot filled, no extras — by the schedule, else by one pass over the
// location's static events, merged with the extras', that keeps each
// occupancy group's occupant count. Only susceptible–infectious pairs are
// tried, in one trial loop: each infectious visitor scans its group in
// arrival order, from the first member who can still be present (the
// longest visit bounds how early that is) to the first who arrives after it
// leaves, and tries each susceptible member it overlaps: the pairs and the
// minutes of the event-ordered walk that reference_test.go keeps as the
// oracle. A trial's exponential is paid only by a draw under a cheap bound
// of its probability; its key's prefix is hashed once per location-day
// and, outside mixing mode, once per infectious visitor. The scratch lives
// in unexported fields of the Result the caller passes, so a caller that
// reuses one Result (Reset keeps capacity) does not allocate.
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

	// The scratch of a location-day that is not full, meaningless between
	// calls: keys holds the extras' group ranking, then their sorted events;
	// occ the occupancy groups; xgroup each extra's group; and xslots, xinf
	// and xsus the extras as a Schedule and its Day hold slots, each group's
	// in arrival order in its window.
	keys       []uint64
	occ        []occupancy
	xgroup     []int32
	xslots     []slot
	xinf, xsus []float64
}

// occupancy is one occupancy group of a location-day that is not full.
type occupancy struct {
	count   int32 // visitors present, during the counting pass
	lo, hi  int32 // the group's window of the extras
	longest int32 // the longest visit in the window, 0 if none is positive
	sus     bool  // some extra in the window is susceptible
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
	// longest[l] is the length of location l's longest visit, 0 if none
	// has a positive one.
	longest []int32
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
// keeps offsets but not slots. It also records each sublocation's slots in
// arrival order, each location's longest visit, and what every full day
// repeats: the Interactions with and without mixing. Every visit must
// satisfy 0 ≤ Start, End ≤ 1440 and Sub ≥ 0; one with End ≤ Start never
// leaves, as in Simulate.
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
		longest:      make([]int32, nl),
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
			s.longest[l] = max(s.longest[l], int32(v.End-v.Start))
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
		// count a full day's Interactions as Day.count does: a departure
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
// the outcome to out, as the package-level Simulate does. A slot not filled
// today is on neither side of a trial: its infectivity and susceptibility
// are zeroed here. On a full day — every slot filled, no extras — Events and
// Interactions come from the schedule, else from one pass over the location
// (count). Then each infectious visitor scans its occupancy group: the
// slots of its sublocation, or every slot in mixing mode, and the group's
// extras, if some of them are susceptible. A location-day with no slot
// filled and no extras returns at once, leaving out as it was.
func (d *Day) Simulate(loc int32, extras []Visitor, p Params, out *Result) {
	s := d.s
	lo, hi := s.offsets[loc], s.offsets[loc+1]
	slots, inf, sus := s.slots[lo:hi], d.inf[lo:hi], d.sus[lo:hi]
	filled := len(slots)
	for i, stamp := range d.stamps[lo:hi] {
		if stamp != d.today {
			inf[i], sus[i] = 0, 0
			filled--
		}
	}
	if filled == 0 && len(extras) == 0 {
		return
	}
	mixing := p.Mixing > 0
	// Sublocation g's slots are bySub[subs[g]:subs[g+1]], in arrival order.
	subs := s.groupStart[s.groupOff[loc] : s.groupOff[loc+1]+1]
	out.Events += 2 * (filled + len(extras))
	if filled < len(slots) || len(extras) > 0 {
		d.count(loc, subs, extras, mixing, out)
	} else {
		out.Interactions += s.interactions[2*loc+b2i(mixing)]
	}

	first, h := len(out.Infections), xrand.Hash(0x1fec7, p.Day, p.LocKey)
	// try runs the trials from src, of infectivity inf, in occupancy group g.
	try := func(src *slot, inf float64, g int32) {
		switch {
		case mixing:
			scan(src, inf, slots, sus, nil, s.longest[loc], &p, h, out)
		case g < int32(len(subs)-1):
			scan(src, inf, slots, sus, s.bySub[subs[g]:subs[g+1]], s.longest[loc], &p, h, out)
		}
		if len(extras) > 0 && out.occ[g].sus {
			o := &out.occ[g]
			scan(src, inf, out.xslots[o.lo:o.hi], out.xsus[o.lo:o.hi], nil, o.longest, &p, h, out)
		}
	}
	for i := range slots {
		if inf[i] > 0 {
			g := int32(0)
			if !mixing {
				g = slots[i].sub
			}
			try(&slots[i], inf[i], g)
		}
	}
	if len(extras) > 0 {
		for g, o := range out.occ {
			for k := o.lo; k < o.hi; k++ {
				if out.xinf[k] > 0 {
					try(&out.xslots[k], out.xinf[k], int32(g))
				}
			}
		}
	}
	canonicalize(out, first)
}

// count adds the Interactions of location loc's day that is not full to
// out, in one pass over its static events, skipping the slots not filled
// today, merged with the extras' sorted events. It keeps only each
// occupancy group's occupant count, as a departure is a no-op exactly when
// the visit ends at or before it starts (its arrival is then still to
// come). The same pass places each group's extras, in arrival order, in
// its window of out's extras scratch. In mixing mode everybody at the
// location shares one group; otherwise scheduled sublocation g is group g,
// and the extras of any other sublocation form groups of their own.
func (d *Day) count(loc int32, subs []int32, extras []Visitor, mixing bool, out *Result) {
	s := d.s
	lo, hi := s.offsets[loc], s.offsets[loc+1]
	slots, stamps, events := s.slots[lo:hi], d.stamps[lo:hi], s.events[2*lo:2*hi]
	m, scheduled := len(extras), len(subs)-1
	if mixing {
		scheduled = 1
	}
	occ, keys := slices.Grow(out.occ[:0], scheduled)[:scheduled], out.keys[:0]
	xgroup := slices.Grow(out.xgroup[:0], m)[:m]
	clear(occ)
	// The groups are sized first, then given consecutive windows.
	if mixing {
		occ[0].hi = int32(m)
		clear(xgroup)
	} else {
		// Sorting (Sub, index) brings the extras of each sublocation
		// together, whatever int32 values Sub takes.
		for j := range extras {
			keys = append(keys, uint64(uint32(extras[j].Sub))<<32|uint64(j))
		}
		slices.Sort(keys)
		for k, key := range keys {
			g := key >> 32
			if g >= uint64(scheduled) {
				if k == 0 || g != keys[k-1]>>32 {
					occ = append(occ, occupancy{})
				}
				g = uint64(len(occ) - 1)
			}
			occ[g].hi++
			xgroup[uint32(key)] = int32(g)
		}
	}
	var off int32
	for g := range occ {
		occ[g].lo, occ[g].hi, off = off, off, off+occ[g].hi
	}
	keys = keys[:0]
	for j := range extras {
		keys = append(keys, eventKey(extras[j].Start, arriveBit, j), eventKey(extras[j].End, 0, j))
	}
	slices.Sort(keys)
	keys = append(keys, math.MaxUint64) // after every static event
	out.xslots = slices.Grow(out.xslots[:0], m)[:m]
	out.xinf = slices.Grow(out.xinf[:0], m)[:m]
	out.xsus = slices.Grow(out.xsus[:0], m)[:m]

	for i, k := 0, 0; i+k < len(events)+2*m; {
		var key uint64
		var g, here, leaves int32 // here: the visitor is here today
		if i < len(events) && events[i] < keys[k] {
			key = events[i]
			i++
			v := &slots[uint32(key)]
			if !mixing {
				g = v.sub
			}
			here, leaves = b2i(stamps[uint32(key)] == d.today), b2i(v.end > v.start)
		} else {
			key = keys[k]
			k++
			v := &extras[uint32(key)]
			g, here, leaves = xgroup[uint32(key)], 1, b2i(v.End > v.Start)
			if o := &occ[g]; key&arriveBit != 0 {
				out.xslots[o.hi] = slot{v.Person, v.Sub, v.OrigSub, v.Start, v.End}
				out.xinf[o.hi], out.xsus[o.hi] = v.Infectivity, v.Susceptibility
				o.sus = o.sus || v.Susceptibility > 0
				o.longest = max(o.longest, int32(v.End)-int32(v.Start))
				o.hi++
			}
		}
		// Without branches, as arrivals and departures interleave
		// unpredictably: an arrival counts the group's occupants and joins
		// them, a departure leaves them if the visit leaves at all.
		arrive := int32(key>>32) & 1 & here
		o := &occ[g]
		out.Interactions += int64(o.count & -arrive)
		o.count += arrive - (here-arrive)*leaves
	}
	out.occ, out.keys, out.xgroup = occ, keys[:0], xgroup
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// scan is the one trial loop: it tries src, an infectious visitor of
// infectivity inf, against each susceptible visitor it overlaps of a group
// listed in arrival order — dsts[j] of susceptibility sus[j], for j in
// members, or every j if members is nil — none of whose visits lasts longer
// than longest minutes. A member who arrives by src.start-longest has left
// when src arrives, so the scan starts behind them, found by bisection, and
// it stops at the first member to arrive as src leaves. A pair is tried at
// the later arrival's minute: the event-ordered walk's pairs exactly, as it
// tries a co-present pair once, when the second arrives, touching intervals
// never meet, and a visitor on both sides is tried both ways.
func scan(src *slot, inf float64, dsts []slot, sus []float64, members []int32, longest int32, p *Params, h uint64, out *Result) {
	n := len(dsts)
	if members != nil {
		n = len(members)
	}
	// Bisection for the first member to arrive after minute from: it is
	// within positions [k, k+w], at n if there is none.
	k, from := 0, int32(src.start)-longest
	for w := n; w > 0; {
		half := w >> 1
		j := k + half
		if members != nil {
			j = int(members[j])
		}
		if int32(dsts[j].start) <= from {
			k += half + 1
			w -= half + 1
		} else {
			w = half
		}
	}
	mixing := p.Mixing > 0
	scale, hs := drawKey(src, src, p, h)
	for ; k < n; k++ {
		j := k
		if members != nil {
			j = int(members[k])
		}
		dst := &dsts[j]
		if dst.start >= src.end {
			break
		}
		at, end := max(src.start, dst.start), min(src.end, dst.end)
		if dst == src || sus[j] <= 0 || at >= end {
			continue
		}
		if mixing {
			scale, hs = drawKey(src, dst, p, h)
		}
		trial(src, dst, inf, sus[j], at, int(end-at), scale, hs, p, out)
	}
}

// Simulate executes the location-day DES of visitors and appends the
// outcome to out: counters are added to, and the infections found are
// appended behind those already there, which are left untouched. The
// appended infections are deduplicated per person (earliest exposure wins,
// ties broken by smallest infector id) and sorted by person, so they are a
// canonical set that does not depend on visitor ordering. It is
// Day.Simulate over an empty schedule, every visitor an extra.
//
// Visits are expected to satisfy 0 ≤ Start < End ≤ 1440 (what
// synthpop.Validate enforces). A visit with End ≤ Start never leaves: its
// departure comes before its arrival, so from Start on it is counted in the
// Interactions of every later arrival in its group, but it has no positive
// overlap with anybody and enters no trial.
func Simulate(visitors []Visitor, p Params, out *Result) {
	emptyDay.Simulate(0, visitors, p, out)
}

// emptyDay is the fill of a schedule of one location without slots. Its
// Simulate only reads it, so every caller shares it.
var emptyDay = func() *Day {
	s, _ := NewSchedule(nil, []int32{0, 0})
	return s.NewDay()
}()

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
// rounding (TestTrialBoundCoversProb). A NaN bound rejects nothing. The
// product is rounded before the margin is added, so no target fuses them.
func trialBound(scale, tau, inf, sus float64, durMin int) float64 {
	y := tau * inf * sus * float64(durMin) // transmissionProb's order
	return float64(scale*y*(1+0x1p-30)) + 0x1p-40
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
