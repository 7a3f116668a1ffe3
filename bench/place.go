package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	episim "repro"
	"repro/internal/artifact"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/splitloc"
)

// placeInstance times what every new population pays before its first
// cell: episim.WarmSweep of one population × {GP, GP-splitLoc} into an
// empty cache directory (generate, split, bipartite graph, multilevel
// partition, evaluate, encode, store), and the same call over the filled
// directory with a fresh in-memory cache (disk reload).
type placeInstance struct {
	seed uint64
	dir  string
	spec *episim.SweepSpec
	// filled is the cache directory of the latest cold build: what the
	// reload unit reads and the output check decodes.
	filled string
	// pop is the workload's population, generated on first use by the
	// checks (the timed units generate their own inside WarmSweep).
	pop *episim.Population
}

const reloadsPerBuild = 5

func newPlaceCold(p params) (instance, error) {
	people, locations, ranks := 30000, 7500, 64
	if p.smoke {
		people, locations, ranks = 2000, 400, 8
	}
	s := &placeInstance{seed: p.seed, dir: p.dir, spec: &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "place-cold", People: people, Locations: locations}},
		Placements: []episim.SweepPlacement{
			{Strategy: "GP", Ranks: ranks},
			{Strategy: "GP", SplitLoc: true, Ranks: ranks},
		},
		Replicates: 1, Days: 1, Seed: p.seed, Workers: runtime.GOMAXPROCS(0),
	}}
	if err := s.cold(); err != nil { // warm-up unit
		return nil, err
	}
	return s, s.reload()
}

// cold builds into a new empty directory; the caller has removed the
// previous one with close, off the clock of any unit.
func (s *placeInstance) cold() error {
	dir, err := os.MkdirTemp(s.dir, "place-cold-")
	if err != nil {
		return err
	}
	s.filled = dir
	res, err := episim.WarmSweep(context.Background(), s.spec, &episim.SweepOptions{CacheDir: dir})
	if err != nil {
		return err
	}
	if res.Built() != len(s.spec.Placements) {
		return fmt.Errorf("cold build made %d placements, want %d", res.Built(), len(s.spec.Placements))
	}
	return nil
}

func (s *placeInstance) reload() error {
	res, err := episim.WarmSweep(context.Background(), s.spec, &episim.SweepOptions{CacheDir: s.filled})
	if err != nil {
		return err
	}
	if res.Built() != 0 {
		return fmt.Errorf("reload over a filled cache built %d placements, want 0", res.Built())
	}
	return nil
}

func (s *placeInstance) measure(d time.Duration) *measurement {
	m := &measurement{}
	repeatFor(d, minUnits, func() {
		s.close()
		m.unit("cold build", &m.wall, s.cold)
		// A reload takes a sixtieth of a build, so several fit in every
		// round at no cost and steady its median.
		for i := 0; i < reloadsPerBuild; i++ {
			m.unit("reload", &m.second, s.reload)
		}
	})
	return m
}

func (s *placeInstance) trace(d time.Duration, rec *recorder) *measurement {
	m := &measurement{}
	s.modelDay(rec)
	n := 0
	repeatFor(d, 1, func() {
		n++
		s.close()
		m.unit("cold build", &m.wall, s.cold)
		m.unit("cold build traced", &m.traced, func() error {
			return s.tracedCold(rec, fmt.Sprintf("place-cold-%d", n))
		})
	})
	return m
}

// tracedCold is the cold WarmSweep taken apart into the layers' public
// calls: generate and store the population, then, on one goroutine per
// placement as the executor does, split, build the graph, partition,
// evaluate, encode and store; finally read everything back and decode
// it, as a reload does. Spans of the GP-splitLoc placement carry the
// plain names the per-layer metrics are read from; the GP placement's
// are suffixed ".gp".
func (s *placeInstance) tracedCold(rec *recorder, traceID string) error {
	dir, err := os.MkdirTemp(s.dir, "place-traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	popStore, err := artifact.NewStore(filepath.Join(dir, "populations"))
	if err != nil {
		return err
	}
	plStore, err := artifact.NewStore(filepath.Join(dir, "placements"))
	if err != nil {
		return err
	}

	root := rec.begin(traceID, 0, "bench.unit")
	defer rec.end(root)
	step := func(parent int, name string, f func()) {
		id := rec.begin(traceID, parent, name)
		f()
		rec.end(id)
	}

	ps := s.spec.Populations[0]
	popKey := ps.Key(s.seed)
	var pop *episim.Population
	step(root, "synthpop.generate", func() { pop = episim.Generate(ps.Name, ps.People, ps.Locations, s.seed) })
	rec.count("synthpop.visits", float64(pop.NumVisits()))
	var popBytes []byte
	step(root, "artifact.encode.population", func() { popBytes = artifact.EncodePopulation(pop) })
	step(root, "artifact.put.population", func() { err = popStore.Put(artifact.KindPopulation, popKey, popBytes) })
	if err != nil {
		return err
	}

	errs := make([]error, len(s.spec.Placements))
	var wg sync.WaitGroup
	for i, spec := range s.spec.Placements {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sfx := ".gp"
			if spec.SplitLoc {
				sfx = ""
			}
			errs[i] = s.tracedPlacement(rec, traceID, root, sfx, pop, spec, spec.Key(popKey), plStore)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *placeInstance) tracedPlacement(rec *recorder, traceID string, root int, sfx string,
	pop *episim.Population, spec episim.SweepPlacement, key string, store *artifact.Store) error {
	step := func(name string, f func()) {
		id := rec.begin(traceID, root, name+sfx)
		f()
		rec.end(id)
	}
	pl := &artifact.Placement{Pop: pop, Ranks: spec.Ranks, Label: spec.Label()}
	if spec.SplitLoc {
		var err error
		step("splitloc.split", func() {
			var st splitloc.Stats
			pl.Pop, st, err = splitloc.SplitPopulation(pop, splitloc.Options{MaxPartitions: max(16384, spec.Ranks)})
			pl.SplitStats = &st
		})
		if err != nil {
			return err
		}
		rec.count("splitloc.fragments", float64(pl.SplitStats.NumFragments))
		rec.count("splitloc.max_degree_post", float64(pl.SplitStats.MaxDegreePost))
	}
	nP := pl.Pop.NumPersons()
	var g *graph.Graph
	step("graph.build", func() { g = episim.BuildBipartiteGraph(pl.Pop) })
	rec.count("graph.edges"+sfx, float64(g.NumEdges()))
	var part *partition.Partitioning
	step("partition.multilevel", func() {
		part = partition.Multilevel(g, spec.Ranks, partition.Options{Imbalance: spec.Imbalance, Seed: s.seed})
	})
	pl.PersonRank, pl.LocationRank = part.Assign[:nP], part.Assign[nP:]
	step("partition.evaluate", func() {
		q := partition.Evaluate(g, part)
		pl.Quality = &q
	})
	rec.count("partition.edge_cut"+sfx, float64(pl.Quality.EdgeCut))
	rec.count("partition.imbalance"+sfx, slices.Max(pl.Quality.MaxOverAvg))

	var payload []byte
	var err error
	step("artifact.encode", func() { payload = artifact.EncodePlacement(pl) })
	rec.count("artifact.bytes"+sfx, float64(len(payload)))
	step("artifact.put", func() { err = store.Put(artifact.KindPlacement, key, payload) })
	if err != nil {
		return err
	}
	step("artifact.get", func() { payload, err = store.Get(artifact.KindPlacement, key) })
	if err != nil {
		return err
	}
	var back *artifact.Placement
	step("artifact.decode", func() { back, err = artifact.DecodePlacement(payload) })
	if err != nil {
		return err
	}
	if !slices.Equal(back.PersonRank, pl.PersonRank) || !slices.Equal(back.LocationRank, pl.LocationRank) {
		return fmt.Errorf("%s: decoded placement differs from the built one", spec.Label())
	}
	return nil
}

// modelDay prices the workload's GP-splitLoc placement on the Blue
// Waters machine model: one call, its wall time and the modelled
// seconds per simulated day it returns (a count: it repeats exactly).
func (s *placeInstance) modelDay(rec *recorder) {
	pl, err := s.direct(s.spec.Placements[1])
	if err != nil {
		return // verify reports the same failure
	}
	for i := 0; i < 5; i++ {
		id := rec.begin("machine-model", 0, "machine.model_day")
		cost := episim.ModelDayTime(pl, episim.DefaultPerfOptions())
		rec.end(id)
		rec.count("machine.modeled_day_s", cost.Total)
	}
}

// direct builds a placement of the workload's population straight
// through episim.BuildPlacement, the reference the stored artifacts are
// checked against.
func (s *placeInstance) direct(spec episim.SweepPlacement) (*episim.Placement, error) {
	return episim.BuildPlacement(s.population(), episim.PlacementOptions{
		Strategy: episim.GP, SplitLoc: spec.SplitLoc, Ranks: spec.Ranks, Seed: s.seed, Imbalance: spec.Imbalance})
}

func (s *placeInstance) population() *episim.Population {
	if s.pop == nil {
		ps := s.spec.Populations[0]
		s.pop = episim.Generate(ps.Name, ps.People, ps.Locations, s.seed)
	}
	return s.pop
}

// stored decodes what the latest cold build left on disk for a
// placement.
func (s *placeInstance) stored(spec episim.SweepPlacement) (*artifact.Placement, error) {
	store, err := artifact.NewStore(filepath.Join(s.filled, "placements"))
	if err != nil {
		return nil, err
	}
	payload, err := store.Get(artifact.KindPlacement, spec.Key(s.spec.Populations[0].Key(s.seed)))
	if err != nil {
		return nil, err
	}
	return artifact.DecodePlacement(payload)
}

func (s *placeInstance) verify() []check {
	var cs []check
	for _, spec := range s.spec.Placements {
		err := func() error {
			want, err := s.direct(spec)
			if err != nil {
				return err
			}
			got, err := s.stored(spec)
			if err != nil {
				return err
			}
			if !slices.Equal(got.PersonRank, want.PersonRank) || !slices.Equal(got.LocationRank, want.LocationRank) {
				return fmt.Errorf("placement on disk differs from a direct build")
			}
			return nil
		}()
		cs = append(cs, check{spec.Label() + " on disk = built", err})
	}
	return cs
}

func (s *placeInstance) digest() string {
	var ranks []any
	for _, spec := range s.spec.Placements {
		pl, err := s.stored(spec)
		if err != nil {
			return "unreadable: " + err.Error()
		}
		ranks = append(ranks, pl.PersonRank, pl.LocationRank)
	}
	return digestJSON(ranks...)
}

func (s *placeInstance) describe() map[string]any {
	d := describePopulation(s.population())
	d["placements"] = []string{s.spec.Placements[0].Label(), s.spec.Placements[1].Label()}
	d["units"] = []string{"cold build", "reload"}
	var onDisk int64
	filepath.Walk(s.filled, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	d["cache_dir_bytes"] = onDisk
	return d
}

func (s *placeInstance) close() {
	if s.filled != "" {
		os.RemoveAll(s.filled)
		s.filled = ""
	}
}
