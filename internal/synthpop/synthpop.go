// Package synthpop generates synthetic person–location populations that
// stand in for the proprietary census-derived social contact networks of
// Barrett et al. used by the paper (Section II-A, Table I).
//
// The paper's phenomena are all driven by distributional properties of the
// bipartite visit graph, so the generator is calibrated to the statistics
// the paper reports rather than to geography:
//
//   - person out-degree (visits per person): mean ≈ 5.5, σ ≈ 2.6;
//   - location in-degree: heavy-tailed (power law with exponent β > 1),
//     mean ≈ visits/locations ≈ 21.5 for the US data;
//   - locations subdivided into sublocations (rooms); people only interact
//     within a sublocation, the property splitLoc exploits.
//
// Heavy tails arise the same way they do in real activity data: large
// facilities (schools, malls, workplaces) draw visitors in proportion to
// their capacity, and capacities follow a Pareto distribution.
//
// State presets reproduce Table I of the paper at a configurable scale
// divisor, and a full 48-state + DC family supports Figure 5.
package synthpop

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// LocationType classifies locations; the type determines capacity
// distribution, room size, and which schedule slots may visit it.
type LocationType uint8

// Location types.
const (
	Home LocationType = iota
	Work
	School
	Shop
	Other
	numLocationTypes
)

var locationTypeNames = [...]string{"home", "work", "school", "shop", "other"}

func (t LocationType) String() string {
	if int(t) < len(locationTypeNames) {
		return locationTypeNames[t]
	}
	return fmt.Sprintf("LocationType(%d)", uint8(t))
}

// AgeGroup classifies people into schedule archetypes.
type AgeGroup uint8

// Age groups.
const (
	Child  AgeGroup = iota // attends school
	Adult                  // attends work
	Senior                 // home + errands
	numAgeGroups
)

// Location is a place people visit. Interactions only occur between people
// in the same sublocation at overlapping times.
type Location struct {
	Type    LocationType
	NumSub  int32 // number of sublocations (rooms); >= 1
	Weight  int32 // capacity used for preferential attachment during synthesis
	Origin  int32 // original location id before splitLoc, or own id
	SubBase int32 // first original sublocation index covered by this (split) location
}

// Person is an agent.
type Person struct {
	Age  AgeGroup
	Home int32 // home location id
}

// Visit is one edge of the bipartite graph: person p is at location l,
// sublocation s, during [Start, End) minutes-of-day.
type Visit struct {
	Person int32
	Loc    int32
	Sub    int32
	Start  int16
	End    int16
}

// Duration returns the visit length in minutes.
func (v Visit) Duration() int { return int(v.End - v.Start) }

// Population is a synthetic population: the input of every experiment.
type Population struct {
	Name      string
	Persons   []Person
	Locations []Location
	// Visits is the normative daily schedule, sorted by person id.
	// PersonVisitOffsets[p] .. PersonVisitOffsets[p+1] index p's visits.
	Visits             []Visit
	PersonVisitOffsets []int32
}

// NumPersons returns the number of people.
func (p *Population) NumPersons() int { return len(p.Persons) }

// NumLocations returns the number of locations.
func (p *Population) NumLocations() int { return len(p.Locations) }

// NumVisits returns the number of daily visits.
func (p *Population) NumVisits() int { return len(p.Visits) }

// PersonVisits returns the visits of person p (aliases internal storage).
func (p *Population) PersonVisits(person int32) []Visit {
	return p.Visits[p.PersonVisitOffsets[person]:p.PersonVisitOffsets[person+1]]
}

// VisitCountsPerLocation returns, for each location, the number of daily
// visits it receives. Twice this number is the location's arrive/depart
// event count, the X input of the static load model (Section III-A).
func (p *Population) VisitCountsPerLocation() []int32 {
	counts := make([]int32, len(p.Locations))
	for _, v := range p.Visits {
		counts[v.Loc]++
	}
	return counts
}

// UniqueVisitorsPerLocation returns each location's in-degree: the number
// of distinct persons visiting it (Figure 3(c)).
func (p *Population) UniqueVisitorsPerLocation() []int32 {
	type pair struct{ loc, person int32 }
	pairs := make([]pair, len(p.Visits))
	for i, v := range p.Visits {
		pairs[i] = pair{v.Loc, v.Person}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].loc != pairs[j].loc {
			return pairs[i].loc < pairs[j].loc
		}
		return pairs[i].person < pairs[j].person
	})
	counts := make([]int32, len(p.Locations))
	for i, pr := range pairs {
		if i > 0 && pairs[i-1] == pr {
			continue
		}
		counts[pr.loc]++
	}
	return counts
}

// VisitIndexByLocation returns visit indices grouped by location:
// offsets[l]..offsets[l+1] index into order, which lists indices into
// p.Visits. The engine uses this to route visits to location managers.
func (p *Population) VisitIndexByLocation() (offsets []int32, order []int32) {
	counts := make([]int32, len(p.Locations)+1)
	for _, v := range p.Visits {
		counts[v.Loc+1]++
	}
	offsets = make([]int32, len(p.Locations)+1)
	for l := 0; l < len(p.Locations); l++ {
		offsets[l+1] = offsets[l] + counts[l+1]
	}
	order = make([]int32, len(p.Visits))
	cursor := append([]int32(nil), offsets[:len(p.Locations)]...)
	for i, v := range p.Visits {
		order[cursor[v.Loc]] = int32(i)
		cursor[v.Loc]++
	}
	return offsets, order
}

// Validate checks structural invariants of the population.
func (p *Population) Validate() error {
	if len(p.PersonVisitOffsets) != len(p.Persons)+1 {
		return fmt.Errorf("synthpop: offsets length %d, want %d", len(p.PersonVisitOffsets), len(p.Persons)+1)
	}
	if int(p.PersonVisitOffsets[len(p.Persons)]) != len(p.Visits) {
		return fmt.Errorf("synthpop: final offset %d, want %d", p.PersonVisitOffsets[len(p.Persons)], len(p.Visits))
	}
	for i := range p.Persons {
		if p.PersonVisitOffsets[i] > p.PersonVisitOffsets[i+1] {
			return fmt.Errorf("synthpop: offsets not monotone at person %d", i)
		}
		home := p.Persons[i].Home
		if home < 0 || int(home) >= len(p.Locations) {
			return fmt.Errorf("synthpop: person %d home %d out of range", i, home)
		}
	}
	for i, v := range p.Visits {
		if v.Loc < 0 || int(v.Loc) >= len(p.Locations) {
			return fmt.Errorf("synthpop: visit %d location %d out of range", i, v.Loc)
		}
		if v.Person < 0 || int(v.Person) >= len(p.Persons) {
			return fmt.Errorf("synthpop: visit %d person %d out of range", i, v.Person)
		}
		loc := p.Locations[v.Loc]
		if v.Sub < 0 || v.Sub >= loc.NumSub {
			return fmt.Errorf("synthpop: visit %d sublocation %d out of range [0,%d)", i, v.Sub, loc.NumSub)
		}
		if v.Start < 0 || v.End > 24*60 || v.Start >= v.End {
			return fmt.Errorf("synthpop: visit %d has bad interval [%d,%d)", i, v.Start, v.End)
		}
	}
	for person := range p.Persons {
		for _, v := range p.PersonVisits(int32(person)) {
			if int(v.Person) != person {
				return fmt.Errorf("synthpop: person index broken at %d", person)
			}
		}
	}
	return nil
}

// Config parameterizes generation.
type Config struct {
	Name      string
	People    int
	Locations int
	Seed      uint64

	// HomeFraction is the fraction of locations that are homes.
	HomeFraction float64
	// ExtraVisitMean is the Poisson mean of errand (shop/other) visits per
	// person per day, tuned so total visits/person ≈ 5.5.
	ExtraVisitMean float64
	// TailAlpha is the Pareto tail exponent for non-home location
	// capacities; smaller = heavier tail.
	TailAlpha float64
}

// DefaultConfig returns a Config calibrated to the paper's statistics for
// the given person/location counts.
func DefaultConfig(name string, people, locations int, seed uint64) Config {
	return Config{
		Name:           name,
		People:         people,
		Locations:      locations,
		Seed:           seed,
		HomeFraction:   0.62,
		ExtraVisitMean: 2.75,
		TailAlpha:      1.35,
	}
}

// roomSize is the nominal sublocation capacity by location type.
var roomSize = [numLocationTypes]int32{
	Home:   8,
	Work:   18,
	School: 28,
	Shop:   35,
	Other:  25,
}

// Generate builds a deterministic synthetic population from cfg.
func Generate(cfg Config) *Population {
	if cfg.People <= 0 || cfg.Locations <= 0 {
		panic("synthpop: Generate requires positive People and Locations")
	}
	if cfg.HomeFraction <= 0 || cfg.HomeFraction >= 1 {
		cfg.HomeFraction = 0.62
	}
	if cfg.TailAlpha <= 1 {
		cfg.TailAlpha = 1.35
	}
	s := xrand.NewStream(cfg.Seed ^ 0x5ee0)

	numHomes := int(float64(cfg.Locations) * cfg.HomeFraction)
	if numHomes < 1 {
		numHomes = 1
	}
	rest := cfg.Locations - numHomes
	// Split the non-home locations: work-heavy mix reflecting activity data.
	numWork := rest * 45 / 100
	numSchool := rest * 12 / 100
	numShop := rest * 25 / 100
	numOther := rest - numWork - numSchool - numShop
	if rest > 0 && numWork == 0 {
		numWork = 1
	}
	if rest > 0 && numSchool == 0 {
		numSchool = 1
	}
	if rest > 0 && numShop == 0 {
		numShop = 1
	}

	locations := make([]Location, 0, cfg.Locations)
	// Largest plausible facility: no single venue draws more than ~5% of
	// the population (real activity data has stadiums, not black holes).
	// Without this cap, small-scale populations get single locations
	// attracting a third of the state, distorting the tail statistics.
	capLimit := float64(cfg.People) / 20
	if capLimit < 60 {
		capLimit = 60
	}
	addLocs := func(n int, t LocationType, capFn func() float64) {
		for i := 0; i < n; i++ {
			capacity := capFn()
			if capacity < 1 {
				capacity = 1
			}
			if t != Home && capacity > capLimit {
				capacity = capLimit
			}
			nsub := int32(math.Ceil(capacity / float64(roomSize[t])))
			if nsub < 1 {
				nsub = 1
			}
			id := int32(len(locations))
			locations = append(locations, Location{
				Type:   t,
				NumSub: nsub,
				Weight: int32(capacity),
				Origin: id,
			})
		}
	}
	addLocs(numHomes, Home, func() float64 { return 2 + s.Pareto(1, 3.2) }) // household sizes, light tail
	// Non-home capacities: Pareto tails produce the heavy-tailed in-degree
	// of Figure 3(c). Schools are mid-size but narrow; shops/other provide
	// the extreme tail (malls, stadiums); work is in between.
	addLocs(numWork, Work, func() float64 { return s.Pareto(4, cfg.TailAlpha+0.25) })
	addLocs(numSchool, School, func() float64 { return 40 * s.Pareto(1, 1.9) })
	addLocs(numShop, Shop, func() float64 { return 3 * s.Pareto(1, cfg.TailAlpha) })
	addLocs(numOther, Other, func() float64 { return 2 * s.Pareto(1, cfg.TailAlpha+0.1) })

	// Preferential samplers by type: probability proportional to capacity.
	samplers := make([]*aliasSampler, numLocationTypes)
	for t := LocationType(0); t < numLocationTypes; t++ {
		var ids []int32
		var ws []float64
		for id, loc := range locations {
			if loc.Type == t {
				ids = append(ids, int32(id))
				ws = append(ws, float64(loc.Weight))
			}
		}
		if len(ids) > 0 {
			samplers[t] = newAliasSampler(ids, ws)
		}
	}

	persons := make([]Person, cfg.People)
	var visits []Visit
	offsets := make([]int32, cfg.People+1)

	for pid := 0; pid < cfg.People; pid++ {
		ps := xrand.KeyedStream(cfg.Seed, 0xCAFE, uint64(pid))
		var age AgeGroup
		switch r := ps.Float64(); {
		case r < 0.24:
			age = Child
		case r < 0.86:
			age = Adult
		default:
			age = Senior
		}
		home := samplers[Home].sample(ps)
		persons[pid] = Person{Age: age, Home: home}

		addVisit := func(loc int32, start, end int16, persistentSub bool) {
			l := locations[loc]
			var sub int32
			if persistentSub {
				// Same room every day (household member, pupil, employee).
				sub = int32(xrand.KeyedIntn(int(l.NumSub), cfg.Seed, 0x5b, uint64(pid), uint64(loc)))
			} else {
				sub = int32(ps.Intn(int(l.NumSub)))
			}
			visits = append(visits, Visit{
				Person: int32(pid), Loc: loc, Sub: sub, Start: start, End: end,
			})
		}

		// Morning and evening at home.
		addVisit(home, 0, int16(7*60+ps.Intn(90)), true)
		eveStart := int16(17*60 + ps.Intn(4*60))
		addVisit(home, eveStart, 24*60, true)

		// Daytime anchor activity.
		switch age {
		case Child:
			school := samplers[School].sample(ps)
			addVisit(school, int16(8*60+ps.Intn(30)), int16(15*60+ps.Intn(60)), true)
		case Adult:
			if ps.Float64() < 0.82 { // employment rate
				work := samplers[Work].sample(ps)
				addVisit(work, int16(8*60+ps.Intn(90)), int16(16*60+ps.Intn(120)), true)
			}
		case Senior:
			// No anchor; more errands below.
		}

		// Errands: shop/other visits, heavy-tail attractors. The rate is
		// person-specific (mixed Poisson), which widens the visits-per-person
		// spread towards the paper's σ≈2.6 without changing the mean.
		mean := cfg.ExtraVisitMean
		if age == Senior {
			mean *= 1.4
		}
		mean *= 0.5 + 0.5*ps.ExpFloat64()
		for i, n := 0, ps.Poisson(mean); i < n; i++ {
			t := Shop
			if ps.Float64() < 0.35 {
				t = Other
			}
			if samplers[t] == nil {
				continue
			}
			loc := samplers[t].sample(ps)
			start := int16(9*60 + ps.Intn(10*60))
			dur := int16(20 + ps.Intn(100))
			end := start + dur
			if end > 24*60 {
				end = 24 * 60
			}
			if end <= start {
				continue
			}
			addVisit(loc, start, end, false)
		}
		offsets[pid+1] = int32(len(visits))
	}

	pop := &Population{
		Name:               cfg.Name,
		Persons:            persons,
		Locations:          locations,
		Visits:             visits,
		PersonVisitOffsets: offsets,
	}
	return pop
}

// aliasSampler draws ids with probability proportional to weight in O(1)
// (Walker's alias method).
type aliasSampler struct {
	ids   []int32
	prob  []float64
	alias []int32
}

func newAliasSampler(ids []int32, weights []float64) *aliasSampler {
	n := len(ids)
	if n == 0 {
		return nil
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("synthpop: negative sampler weight")
		}
		total += w
	}
	a := &aliasSampler{
		ids:   append([]int32(nil), ids...),
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	if total == 0 {
		for i := range a.prob {
			a.prob[i] = 1
			a.alias[i] = int32(i)
		}
		return a
	}
	scaled := make([]float64, n)
	var small, large []int32
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

func (a *aliasSampler) sample(s *xrand.Stream) int32 {
	i := s.Intn(len(a.ids))
	if s.Float64() < a.prob[i] {
		return a.ids[i]
	}
	return a.ids[a.alias[i]]
}
