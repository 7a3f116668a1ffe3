// Package des implements the per-location sequential discrete-event
// simulation of EpiSimdemics (Section II-B, step 3): every visit message a
// location received is converted into an arrive and a depart event, events
// are executed in time order while tracking sublocation occupancy, and each
// co-presence of a susceptible and an infectious person triggers a
// transmission trial. Successful trials yield the "infect" messages sent
// back to person objects.
//
// The package also produces the event and interaction counts that feed the
// static and dynamic workload models of Section III-A, and its execution
// time is what the load model is fitted against (Figure 3(a)).
//
// Every co-present pair is counted (Result.Interactions), but only
// susceptible–infectious pairs are tried: each occupancy group keeps its
// present infectious and susceptible visitors apart, and an arrival walks
// only the list it can exchange the disease with. Simulate's working
// memory lives in unexported fields of the Result the caller passes, so a
// caller that reuses one Result (Reset keeps capacity) simulates
// location-days without allocating.
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
	Person         int32
	Sub            int32 // sublocation index within this location
	Start, End     int16 // minutes of day, [Start, End)
	Infectivity    float64
	Susceptibility float64
	// OrigSub is the visitor's sublocation in the pre-splitLoc numbering
	// of the original location. Only consulted in mixing mode (Params.
	// Mixing > 0), where it both groups occupancy and keys trials so that
	// retain-edges splitting with infectious replication reproduces the
	// unsplit outcome exactly. May lie outside this fragment's local
	// range for replicated infectious visitors.
	OrigSub int32
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
	// (0 disables; 1 makes rooms irrelevant). In mixing mode occupancy is
	// grouped by Visitor.OrigSub.
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

	// Simulate's scratch, meaningless between calls. keys holds the group
	// ranking and then the event queue; lists[side] is carved into one
	// window per occupancy group.
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
// starts at off and is as long as the group has members, so it cannot
// overflow.
type groupState struct {
	off   int32
	count int32
	n     [2]int32
}

// An event is one uint64 ordered by (minute, depart before arrive, visitor
// index), so the queue sorts as plain integers. Departures sort before
// arrivals at the same minute so that touching intervals ([a,b) then
// [b,c)) never interact; the order among same-minute arrivals decides only
// which of two visitors "meets" the other, never whether or when they meet.
// The index keeps all 32 bits: there is no cap on visitors per call.
const arriveBit = 1 << 32

func eventKey(minute int16, arrive uint64, idx int) uint64 {
	// Flipping the sign bit orders negative minutes first, as int16 does.
	return uint64(uint16(minute)^0x8000)<<33 | arrive | uint64(uint32(idx))
}

// Simulate executes the location-day DES and appends the outcome to out:
// counters are added to, and the infections found are appended behind
// those already there, which are left untouched. The appended infections
// are deduplicated per person (earliest exposure wins, ties broken by
// smallest infector id) and sorted by person, so they are a canonical set
// that does not depend on visitor ordering.
//
// Visits are expected to satisfy 0 ≤ Start < End ≤ 1440 (what
// synthpop.Validate enforces). A visit with End ≤ Start never leaves: its
// departure finds it absent and is a no-op, so from Start on it is counted
// in the Interactions of every later arrival in its group, but it has no
// positive overlap with anybody and enters no trial.
func Simulate(visitors []Visitor, p Params, out *Result) {
	out.Events += 2 * len(visitors)
	n := len(visitors)
	if n < 2 {
		return
	}
	out.vis = slices.Grow(out.vis[:0], n)[:n]
	for side := range out.lists {
		out.lists[side] = slices.Grow(out.lists[side][:0], n)[:n]
	}
	vis, groups, keys := out.vis, out.groups[:0], out.keys[:0]

	// Rank the occupancy groups to dense ids. In mixing mode everybody at
	// the location interacts, so there is one group and OrigSub only picks
	// the scale of a trial; otherwise a group is a sublocation, and sorting
	// (Sub, visitor) brings each one's members together, whatever int32
	// values Sub takes.
	if p.Mixing > 0 {
		clear(vis)
		groups = append(groups, groupState{})
	} else {
		for i := range visitors {
			keys = append(keys, uint64(uint32(visitors[i].Sub))<<32|uint64(uint32(i)))
		}
		slices.Sort(keys)
		for k, key := range keys {
			if k == 0 || key>>32 != keys[k-1]>>32 {
				groups = append(groups, groupState{off: int32(k)})
			}
			vis[uint32(key)] = visitorState{group: int32(len(groups) - 1)}
		}
		keys = keys[:0]
	}

	for i := range visitors {
		keys = append(keys, eventKey(visitors[i].Start, arriveBit, i), eventKey(visitors[i].End, 0, i))
	}
	slices.Sort(keys)

	first := len(out.Infections)
	for _, key := range keys {
		idx := int32(uint32(key))
		v, st := &visitors[idx], &vis[idx]
		g := &groups[st.group]
		on := [2]bool{infectious: v.Infectivity > 0, susceptible: v.Susceptibility > 0}
		if key&arriveBit == 0 {
			if !st.present {
				continue
			}
			st.present = false
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
		out.Interactions += int64(g.count)
		if on[infectious] {
			for _, o := range out.lists[susceptible][g.off : g.off+g.n[susceptible]] {
				tryInfect(v, &visitors[o], v.Start, &p, out)
			}
		}
		if on[susceptible] {
			for _, o := range out.lists[infectious][g.off : g.off+g.n[infectious]] {
				tryInfect(&visitors[o], v, v.Start, &p, out)
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
	out.groups, out.keys = groups, keys

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
