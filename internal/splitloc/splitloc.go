// Package splitloc implements the paper's graph preprocessing contribution
// (Section III-C): splitting heavily-loaded location vertices so that the
// heavy-tailed load distribution no longer bounds achievable balance.
//
// People only interact inside a sublocation, so a location can be split
// into fragments holding exclusive subsets of its sublocations without
// adding any communication — the "divide edges" method of Figure 6(a).
// This both divides the load and divides the degree of the split vertex.
// SplitPopulation applies this transform to a synthetic population; the
// engine then treats fragments as ordinary locations, and the keyed
// randomness (original location id + original sublocation index) makes the
// epidemic bit-identical before and after splitting — the package's
// correctness oracle.
//
// The "retain edges" method of Figure 6(b) (for future inter-sublocation
// mixing) is provided as a graph transform for the partitioning analysis.
package splitloc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/synthpop"
)

// Options controls the split decision.
type Options struct {
	// MaxPartitions is the largest partition count the decomposition
	// should support; the auto threshold guarantees no single location
	// exceeds the average per-partition load at that count. Default 16384.
	MaxPartitions int
	// Threshold overrides the automatic threshold (location weight units:
	// expected visits). 0 = automatic per the paper: determined by the
	// total load, the maximum number of partitions, and the largest
	// sublocation weight.
	Threshold float64
	// TopFraction is the fraction of largest locations (by sublocation
	// count) per type used to estimate the per-type sublocation weight,
	// mirroring "we determine the sublocation weight based on the largest
	// locations from each state". Default 0.01.
	TopFraction float64
}

func (o Options) withDefaults() Options {
	if o.MaxPartitions <= 0 {
		o.MaxPartitions = 16384
	}
	if o.TopFraction <= 0 || o.TopFraction > 1 {
		o.TopFraction = 0.01
	}
	return o
}

// Stats reports what the preprocessing did.
type Stats struct {
	Threshold     float64
	NumSplit      int // locations that were split
	NumFragments  int // fragments they became (> NumSplit)
	LocationsPre  int
	LocationsPost int
	// MaxLocWeightPre/Post are the heaviest location weights (expected
	// visits) before and after: Table II's l_max vs ℓ_max in weight units.
	MaxLocWeightPre  float64
	MaxLocWeightPost float64
	// MaxDegreePre/Post are the heaviest per-location visit counts, the
	// d_max the paper reports shrinking by ~54x on average.
	MaxDegreePre  int32
	MaxDegreePost int32
	// GrowthFrac is (LocationsPost-LocationsPre)/LocationsPre; the paper
	// reports at most 5.25%.
	GrowthFrac float64
}

// SublocationWeights estimates the average number of visits per
// sublocation for each location type, measured on the largest locations of
// that type (Section III-C's platform-independent approximation).
func SublocationWeights(pop *synthpop.Population, topFraction float64) [5]float64 {
	visits := pop.VisitCountsPerLocation()
	type rec struct {
		nsub   int32
		visits int32
	}
	byType := make([][]rec, 5)
	for id, loc := range pop.Locations {
		byType[loc.Type] = append(byType[loc.Type], rec{loc.NumSub, visits[id]})
	}
	var w [5]float64
	for t := range byType {
		recs := byType[t]
		if len(recs) == 0 {
			continue
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].nsub > recs[j].nsub })
		n := int(math.Ceil(topFraction * float64(len(recs))))
		if n < 1 {
			n = 1
		}
		var sumV, sumS int64
		for _, r := range recs[:n] {
			sumV += int64(r.visits)
			sumS += int64(r.nsub)
		}
		if sumS > 0 {
			w[t] = float64(sumV) / float64(sumS)
		}
	}
	return w
}

// LocationWeights returns each location's platform-independent weight (sum
// of its sublocation weights) plus the largest single sublocation weight.
func LocationWeights(pop *synthpop.Population, opt Options) ([]float64, float64) {
	opt = opt.withDefaults()
	subW := SublocationWeights(pop, opt.TopFraction)
	maxSubW := 0.0
	for _, w := range subW {
		if w > maxSubW {
			maxSubW = w
		}
	}
	locW := make([]float64, len(pop.Locations))
	for id, loc := range pop.Locations {
		locW[id] = float64(loc.NumSub) * subW[loc.Type]
	}
	return locW, maxSubW
}

// AutoThreshold computes the paper's split threshold: heavy enough that
// fragments stay useful (never below one sublocation's weight), light
// enough that no location exceeds the average per-partition load at
// MaxPartitions partitions.
func AutoThreshold(locW []float64, maxSubW float64, maxPartitions int) float64 {
	var total float64
	for _, w := range locW {
		total += w
	}
	th := total / float64(maxPartitions)
	if th < maxSubW {
		th = maxSubW
	}
	return th
}

// SplitPopulation applies divide-edges splitting to every location whose
// weight exceeds the threshold, returning a new population (the input is
// not modified) and statistics. Fragment locations receive exclusive,
// contiguous blocks of the original sublocations, as even as possible; the
// first fragment keeps the original location id so that unsplit references
// stay valid, and Person.Home is re-pointed to the fragment containing the
// person's household room.
func SplitPopulation(pop *synthpop.Population, opt Options) (*synthpop.Population, Stats, error) {
	opt = opt.withDefaults()
	locW, maxSubW := LocationWeights(pop, opt)
	threshold := opt.Threshold
	if threshold <= 0 {
		threshold = AutoThreshold(locW, maxSubW, opt.MaxPartitions)
	}
	visitsPre := pop.VisitCountsPerLocation()

	st := Stats{
		Threshold:    threshold,
		LocationsPre: len(pop.Locations),
	}
	for id := range pop.Locations {
		if locW[id] > st.MaxLocWeightPre {
			st.MaxLocWeightPre = locW[id]
		}
		if visitsPre[id] > st.MaxDegreePre {
			st.MaxDegreePre = visitsPre[id]
		}
	}

	newLocs := append([]synthpop.Location(nil), pop.Locations...)
	// fragPlan[loc] is nil for unsplit locations, else the list of
	// fragment location ids indexed by block, with block boundaries in
	// fragBounds[loc] (cumulative sublocation starts, len = nFrags+1).
	fragPlan := make(map[int32][]int32)
	fragBounds := make(map[int32][]int32)

	for id := range pop.Locations {
		loc := pop.Locations[id]
		if locW[id] <= threshold || loc.NumSub < 2 {
			continue
		}
		nFrags := int32(math.Ceil(locW[id] / threshold))
		if nFrags > loc.NumSub {
			nFrags = loc.NumSub
		}
		if nFrags < 2 {
			continue
		}
		st.NumSplit++
		st.NumFragments += int(nFrags)
		// Even contiguous blocks of sublocations.
		bounds := make([]int32, nFrags+1)
		for f := int32(0); f <= nFrags; f++ {
			bounds[f] = f * loc.NumSub / nFrags
		}
		ids := make([]int32, nFrags)
		for f := int32(0); f < nFrags; f++ {
			nsub := bounds[f+1] - bounds[f]
			frag := synthpop.Location{
				Type:    loc.Type,
				NumSub:  nsub,
				Weight:  loc.Weight / int32(nFrags),
				Origin:  loc.Origin,
				SubBase: loc.SubBase + bounds[f],
			}
			if f == 0 {
				newLocs[id] = frag
				ids[f] = int32(id)
			} else {
				ids[f] = int32(len(newLocs))
				newLocs = append(newLocs, frag)
			}
		}
		fragPlan[int32(id)] = ids
		fragBounds[int32(id)] = bounds
	}

	out := &synthpop.Population{
		Name:               pop.Name,
		Persons:            append([]synthpop.Person(nil), pop.Persons...),
		Locations:          newLocs,
		Visits:             append([]synthpop.Visit(nil), pop.Visits...),
		PersonVisitOffsets: pop.PersonVisitOffsets,
	}

	// Rewrite visits of split locations.
	for i := range out.Visits {
		v := &out.Visits[i]
		ids, ok := fragPlan[v.Loc]
		if !ok {
			continue
		}
		bounds := fragBounds[v.Loc]
		// Find the block containing v.Sub.
		f := sort.Search(len(bounds)-1, func(f int) bool { return bounds[f+1] > v.Sub })
		if f >= len(ids) {
			return nil, Stats{}, fmt.Errorf("splitloc: sublocation %d beyond blocks of location %d", v.Sub, v.Loc)
		}
		v.Sub -= bounds[f]
		v.Loc = ids[f]
	}

	// Re-point homes of persons whose home was split.
	for p := range out.Persons {
		home := out.Persons[p].Home
		if _, ok := fragPlan[home]; !ok {
			continue
		}
		origin := pop.Locations[home].Origin
		fixed := false
		for _, v := range out.PersonVisits(int32(p)) {
			l := out.Locations[v.Loc]
			if l.Type == synthpop.Home && l.Origin == origin {
				out.Persons[p].Home = v.Loc
				fixed = true
				break
			}
		}
		if !fixed {
			out.Persons[p].Home = fragPlan[home][0]
		}
	}

	st.LocationsPost = len(out.Locations)
	st.GrowthFrac = float64(st.LocationsPost-st.LocationsPre) / float64(st.LocationsPre)
	locWPost, _ := LocationWeights(out, opt)
	// Post weights use the same per-type sublocation weights conceptually;
	// recompute is fine since type weights barely move, but guard with the
	// direct definition for the max.
	for _, w := range locWPost {
		if w > st.MaxLocWeightPost {
			st.MaxLocWeightPost = w
		}
	}
	for _, c := range out.VisitCountsPerLocation() {
		if c > st.MaxDegreePost {
			st.MaxDegreePost = c
		}
	}
	if err := out.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("splitloc: result invalid: %w", err)
	}
	return out, st, nil
}

// DivideEdgesVertex splits vertex v of g into nFrags fragments using the
// divide-edges method of Figure 6(a): the neighbors (and their edges) are
// distributed round-robin across fragments and the vertex weights are
// divided. Fragment 0 keeps id v; others are appended. Used by the Figure
// 6 analysis on small graphs.
func DivideEdgesVertex(g *graph.Graph, v int, nFrags int) *graph.Graph {
	if nFrags < 2 {
		nFrags = 2
	}
	n := g.NumVertices()
	nCon := g.NumConstraints()
	b := graph.NewBuilder(n+nFrags-1, nCon)
	fragID := func(i int) int {
		if i == 0 {
			return v
		}
		return n + i - 1
	}
	for u := 0; u < n; u++ {
		if u == v {
			continue
		}
		for c := 0; c < nCon; c++ {
			b.SetVertexWeight(u, c, g.VertexWeight(u, c))
		}
	}
	for i := 0; i < nFrags; i++ {
		for c := 0; c < nCon; c++ {
			w := g.VertexWeight(v, c) / int64(nFrags)
			if i == 0 {
				w += g.VertexWeight(v, c) % int64(nFrags)
			}
			b.SetVertexWeight(fragID(i), c, w)
		}
	}
	for u := 0; u < n; u++ {
		nbrs, ws := g.Neighbors(u)
		for j, x := range nbrs {
			if int(x) < u {
				continue
			}
			switch {
			case u == v:
				b.AddEdge(fragID(j%nFrags), int(x), ws[j])
			case int(x) == v:
				b.AddEdge(u, fragID(j%nFrags), ws[j])
			default:
				b.AddEdge(u, int(x), ws[j])
			}
		}
	}
	return b.Build()
}

// RetainEdgesVertex splits vertex v into nFrags fragments that each retain
// the entire neighbor set — the Figure 6(b) method for applications whose
// split work units still need all inputs (future inter-sublocation
// mixing). Load divides; communication does not.
func RetainEdgesVertex(g *graph.Graph, v int, nFrags int) *graph.Graph {
	if nFrags < 2 {
		nFrags = 2
	}
	n := g.NumVertices()
	nCon := g.NumConstraints()
	b := graph.NewBuilder(n+nFrags-1, nCon)
	fragID := func(i int) int {
		if i == 0 {
			return v
		}
		return n + i - 1
	}
	for u := 0; u < n; u++ {
		if u == v {
			continue
		}
		for c := 0; c < nCon; c++ {
			b.SetVertexWeight(u, c, g.VertexWeight(u, c))
		}
	}
	for i := 0; i < nFrags; i++ {
		for c := 0; c < nCon; c++ {
			w := g.VertexWeight(v, c) / int64(nFrags)
			if i == 0 {
				w += g.VertexWeight(v, c) % int64(nFrags)
			}
			b.SetVertexWeight(fragID(i), c, w)
		}
	}
	for u := 0; u < n; u++ {
		nbrs, ws := g.Neighbors(u)
		for j, x := range nbrs {
			if int(x) < u {
				continue
			}
			if u == v || int(x) == v {
				other := int(x)
				if u != v {
					other = u
				}
				for i := 0; i < nFrags; i++ {
					b.AddEdge(fragID(i), other, ws[j])
				}
			} else {
				b.AddEdge(u, int(x), ws[j])
			}
		}
	}
	return b.Build()
}
