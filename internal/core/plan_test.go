package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/interventions"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// planRun is one run on a shared plan: cfg with scenario, or, when forkDay
// is positive, a RunPrefix to forkDay under scenario alone and a Restore
// into an engine that also carries branch.
type planRun struct {
	name             string
	cfg              Config
	scenario, branch string
	forkDay          int
}

// sharedPlanCases are placements, each with the runs a plan of it serves
// one after another: every kernel, visit-dropping interventions, a fork,
// and on a split population with two managers per rank, mixing.
func sharedPlanCases(t *testing.T) [][]planRun {
	pop := testPop(t)
	personRank := make([]int32, pop.NumPersons())
	locationRank := make([]int32, pop.NumLocations())
	for i := range personRank {
		personRank[i] = int32(i*7) % 6
	}
	for i := range locationRank {
		locationRank[i] = int32(i*5) % 6
	}
	base := Config{Population: pop, Disease: hotModel(), Days: 10, Seed: 41, InitialInfections: 5,
		Ranks: 6, AggBufferSize: 64, PersonRank: personRank, LocationRank: locationRank}
	with := func(c Config, kernel string, threshold float64) Config {
		c.Kernel, c.KernelThreshold = kernel, threshold
		return c
	}
	filters := `when day >= 2 {
    close school for 6
    reduce work visits by 0.5 for 6
    isolate symptomatic for 6
}`
	split, _, err := splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: 2048})
	if err != nil {
		t.Fatal(err)
	}
	mixed := Config{Population: split, Disease: hotModel(), Days: 10, Seed: 43, InitialInfections: 5,
		Ranks: 4, ChareFactor: 2, AggBufferSize: 16, Mixing: 0.3}
	return [][]planRun{{
		{name: "event", cfg: with(base, KernelEvent, 0.05)},
		{name: "dense", cfg: base},
		{name: "auto", cfg: with(base, KernelAuto, 0)},
		{name: "auto-filters", cfg: with(base, KernelAuto, 0), scenario: filters},
		{name: "event-filters", cfg: with(base, KernelEvent, 0.05), scenario: filters},
		{name: "dense-scenario", cfg: base, scenario: mustRead(t, "../../scenarios/pandemic-response.txt")},
		{name: "auto-fork", cfg: with(base, KernelAuto, 0), scenario: filters,
			branch: branchSchedule(4).Compile(), forkDay: 4},
	}, {
		{name: "mixing-dense", cfg: mixed},
		{name: "mixing-auto", cfg: with(mixed, KernelAuto, 0)},
		{name: "split-event", cfg: func() Config { c := with(mixed, KernelEvent, 0.05); c.Mixing = 0; return c }()},
		{name: "mixing-fork", cfg: with(mixed, KernelAuto, 0), branch: branchSchedule(3).Compile(), forkDay: 3},
	}}
}

// runWith runs r on engines newEngine builds.
func runWith(newEngine func(Config) (*Engine, error), r planRun) (*Result, error) {
	parse := func(src string) (*interventions.Scenario, error) {
		if strings.TrimSpace(src) == "" {
			return nil, nil
		}
		return interventions.Parse(src)
	}
	cfg, pcfg := r.cfg, r.cfg
	var err error
	if cfg.Scenario, err = parse(combineScenario(r.scenario, r.branch)); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if r.forkDay > 0 {
		if pcfg.Scenario, err = parse(r.scenario); err != nil {
			return nil, err
		}
		pe, err := newEngine(pcfg)
		if err != nil {
			return nil, err
		}
		cp, err := pe.RunPrefix(r.forkDay)
		if err != nil {
			return nil, err
		}
		if err := e.Restore(cp); err != nil {
			return nil, err
		}
	}
	return e.Run()
}

func mustRunWith(t *testing.T, newEngine func(Config) (*Engine, error), r planRun) *Result {
	t.Helper()
	res, err := runWith(newEngine, r)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return res
}

// planDigest builds whatever the plan has not built yet and hashes every
// table it holds, and the population it was built from.
func planDigest(pl *Plan) string {
	pl.visits()
	pl.rooms()
	pl.schedule()
	pl.families()
	h := sha256.New()
	fmt.Fprint(h, pl.pop.Visits, pl.pmOf, pl.lmOf, pl.lmIndex, pl.personsOfPM, pl.locsOfLM,
		pl.locOffsets, pl.locVisits, pl.roomIx, pl.pmSlots, pl.fragments, *pl.sched)
	return hex.EncodeToString(h.Sum(nil))
}

// Engines built one after another from one plan produce exactly what
// engines built by New do, phase statistics included, and leave the plan's
// tables as they found them. Each placement's runs go twice over one plan:
// the first pass builds its lazy tables in run order, the second runs on
// them built. A config naming another placement is rejected.
func TestSharedPlanMatchesFresh(t *testing.T) {
	for _, runs := range sharedPlanCases(t) {
		fresh := make([]*Result, len(runs))
		for i, r := range runs {
			fresh[i] = mustRunWith(t, New, r)
		}
		plan, err := NewPlan(runs[0].cfg)
		if err != nil {
			t.Fatal(err)
		}
		var digest string
		for pass := range 2 {
			for i, r := range runs {
				if got := mustRunWith(t, plan.New, r); !reflect.DeepEqual(got, fresh[i]) {
					t.Fatalf("pass %d, %s: the shared plan's run differs from a fresh engine's", pass, r.name)
				}
			}
			if d := planDigest(plan); pass == 0 {
				digest = d
			} else if d != digest {
				t.Fatalf("%s's placement: the plan's tables changed under its engines", runs[0].name)
			}
		}

		other := runs[0].cfg
		other.Population = synthpop.Generate(synthpop.DefaultConfig("core-test", 3000, 700, 11))
		rejected := []Config{other}
		for _, mutate := range []func(*Config){
			func(c *Config) { c.PersonRank = make([]int32, c.Population.NumPersons()) },
			func(c *Config) { c.LocationRank = make([]int32, c.Population.NumLocations()) },
			func(c *Config) { c.Ranks++ },
			func(c *Config) { c.ChareFactor = 3 },
		} {
			c := runs[0].cfg
			mutate(&c)
			rejected = append(rejected, c)
		}
		for i, c := range rejected {
			if _, err := plan.New(c); err == nil {
				t.Fatalf("%s's plan accepted another placement's config (%d)", runs[0].name, i)
			}
		}
	}
}

// Engines run at once on one fresh plan, which they build on first use, and
// find what New's engines find one after another: the split placement's
// four runs, and four event-kernel runs that all build the room index at
// once.
func TestSharedPlanRace(t *testing.T) {
	cases := sharedPlanCases(t)
	mixing := cases[1]
	mixing[1].cfg.Parallel = true
	var event []planRun
	for _, r := range cases[0] {
		if r.cfg.Kernel == KernelEvent {
			seeded := r
			seeded.name, seeded.cfg.Seed = r.name+"-reseeded", r.cfg.Seed+1
			event = append(event, r, seeded)
		}
	}
	if len(event) != 4 {
		t.Fatalf("%d event-kernel runs, want 4", len(event))
	}
	t.Run("mixing", func(t *testing.T) { raceOnFreshPlan(t, mixing) })
	t.Run("event", func(t *testing.T) { raceOnFreshPlan(t, event) })
}

func raceOnFreshPlan(t *testing.T, runs []planRun) {
	want := make([]*Result, len(runs))
	for i, r := range runs {
		want[i] = mustRunWith(t, New, r)
	}
	plan, err := NewPlan(runs[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runWith(plan.New, r)
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.name, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: a concurrent run on the shared plan differs from a sequential fresh one", r.name)
		}
	}
}

// Every room of the room index lists its location's positions of that
// sublocation in arrival order, ties in location-visit order, and records
// its longest visit: together the rooms of a location are a permutation of
// its positions. The populations reach rooms with several arrivals in one
// minute, so that the tie order is checked too.
func TestRoomIndexArrivalOrder(t *testing.T) {
	split, _, err := splitloc.SplitPopulation(testPop(t), splitloc.Options{MaxPartitions: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, pop := range []*synthpop.Population{twinVisitPop(t), split} {
		pl, err := NewPlan(Config{Population: pop})
		if err != nil {
			t.Fatal(err)
		}
		offsets, visits := pl.visits()
		ix := pl.rooms()
		if len(ix.order) != len(visits) || len(ix.offsets) != len(ix.longest)+1 {
			t.Fatalf("%s: %d order entries, %d offsets, %d room maxima for %d visits",
				pop.Name, len(ix.order), len(ix.offsets), len(ix.longest), len(visits))
		}
		ties := 0
		for l := range pop.Locations {
			locVisits := visits[offsets[l]:offsets[l+1]]
			seen := make([]bool, len(locVisits))
			for sub := range pop.Locations[l].NumSub {
				k := ix.base[l] + sub
				var longest int16
				room := ix.order[ix.offsets[k]:ix.offsets[k+1]]
				for j, i := range room {
					v := &locVisits[i]
					if v.Sub != sub || seen[i] {
						t.Fatalf("%s: location %d room %d holds position %d of room %d, or twice", pop.Name, l, sub, i, v.Sub)
					}
					seen[i] = true
					longest = max(longest, v.End-v.Start)
					if j == 0 {
						continue
					}
					prev := room[j-1]
					if w := &locVisits[prev]; w.Start > v.Start || w.Start == v.Start && prev > i {
						t.Fatalf("%s: location %d room %d lists position %d (start %d) before %d (start %d)",
							pop.Name, l, sub, prev, w.Start, i, v.Start)
					} else if w.Start == v.Start {
						ties++
					}
				}
				if ix.longest[k] != longest {
					t.Fatalf("%s: location %d room %d records longest visit %d, want %d", pop.Name, l, sub, ix.longest[k], longest)
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("%s: location %d position %d is in no room", pop.Name, l, i)
				}
			}
		}
		if ties < 100 {
			t.Errorf("%s: %d arrivals tie with the previous one in their room, want at least 100", pop.Name, ties)
		}
	}
}

// An engine keeps per visit only what a run changes — its fill of the
// schedule and its PMs' visit batches — and shares the rest with its plan:
// at 50,000 persons, the heap an engine adds by New and two dense days,
// once the plan is built, stays under 48 bytes per visit.
func TestEngineRetainedBytesPerVisit(t *testing.T) {
	pop := synthpop.Generate(synthpop.DefaultConfig("retained", 50000, 12500, 7))
	cfg := Config{Population: pop, Disease: hotModel(), Days: 2, Seed: 7, InitialInfections: 250,
		Ranks: 16, AggBufferSize: 64}
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan.schedule()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := plan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.RunDay(1)
	e.RunDay(2)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	runtime.KeepAlive(plan)
	perVisit := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(pop.NumVisits())
	t.Logf("%.1f bytes per visit over %d visits", perVisit, pop.NumVisits())
	if perVisit > 48 {
		t.Errorf("an engine retains %.1f bytes per visit beyond its plan, want at most 48", perVisit)
	}
}
