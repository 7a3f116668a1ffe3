package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	episim "repro"
	"repro/internal/disease"
	"repro/internal/obs"
)

// reactiveClosure is the repo's reactive school-closure scenario, inlined
// so the benchmark reads no file outside its own directory.
const reactiveClosure = `when prevalence(symptomatic) > 0.005 and day >= 3 {
    close school for 14
}
`

// forkSpec is the grid of sweep-fork, also the shape (much smaller) of
// the sweeps service-gw submits: {RR, GP-splitLoc} × two models × two
// scenarios × two intervention branches forking at forkDay.
func forkSpec(name string, people, locations, ranks, days, forkDay, replicates int, seed uint64) *episim.SweepSpec {
	spec := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: name, People: people, Locations: locations}},
		Placements: []episim.SweepPlacement{
			{Strategy: "RR", Ranks: ranks},
			{Strategy: "GP", SplitLoc: true, Ranks: ranks},
		},
		Models: []episim.SweepModel{
			{Name: "low", Transmissibility: 0.6 * disease.Default().Transmissibility},
			{Name: "default"},
		},
		Scenarios: []episim.SweepScenario{
			{Name: "baseline"},
			{Name: "reactive", Text: reactiveClosure},
		},
		Replicates: replicates, Days: days, Seed: seed,
		InitialInfections: max(5, people/100), AggBufferSize: 64,
		Workers: runtime.GOMAXPROCS(0),
	}
	if forkDay > 0 {
		spec.ForkDay = forkDay
		spec.Interventions = []episim.SweepIntervention{
			{Name: "none"},
			{Name: "closure", Schedule: episim.InterventionSchedule{
				Closures: []episim.InterventionClosure{{LocType: "school", Day: forkDay + 1, Days: 7}},
			}},
		}
	}
	return spec
}

// sweepInstance times episim.RunSweepContext over the fork grid. Every
// round gets a fresh SweepCache whose placements are pre-warmed off the
// clock and whose checkpoints are cold: the primary unit builds every
// checkpoint once and resumes every branch from one; the secondary unit
// is the same sweep again on the now warm cache, which restores every
// checkpoint and simulates only the days after the fork.
type sweepInstance struct {
	spec *episim.SweepSpec
	// last is the latest cold-checkpoint result, lastWarm the latest
	// warm one; they must be the same result.
	last, lastWarm *episim.SweepResult
	// cells, checkpoints, branchRuns and simDays are what one unit must
	// account for exactly.
	cells, checkpoints, branchRuns int
	simDays                        int64
}

func newSweepFork(p params) (instance, error) {
	spec := forkSpec("sweep-fork", 600, 150, 8, 20, 8, 2, p.seed)
	if p.smoke {
		spec = forkSpec("sweep-fork", 300, 60, 2, 8, 3, 1, p.seed)
	}
	s := &sweepInstance{spec: spec}
	// Placements × models × scenarios share a checkpoint per replicate;
	// each forks into one run per intervention branch.
	prefixes := len(spec.Placements) * len(spec.Models) * len(spec.Scenarios)
	s.cells = prefixes * len(spec.Interventions)
	s.checkpoints = prefixes * spec.Replicates
	s.branchRuns = s.cells * spec.Replicates
	s.simDays = int64(s.checkpoints*spec.ForkDay + s.branchRuns*(spec.Days-spec.ForkDay))
	cache, err := s.warmCache()
	if err != nil {
		return nil, err
	}
	if _, err = s.run(cache, false, nil, nil); err != nil { // warm-up units
		return nil, err
	}
	_, err = s.run(cache, true, nil, nil)
	return s, err
}

func (s *sweepInstance) warmCache() (*episim.SweepCache, error) {
	cache := episim.NewSweepCache(0)
	_, err := episim.WarmSweep(context.Background(), s.spec, &episim.SweepOptions{Cache: cache})
	return cache, err
}

// run executes one sweep and returns the seconds from its start to its
// first finalized cell. The result must account for exactly the grid:
// on a cache with cold checkpoints every prefix is built, on a warm one
// none is.
func (s *sweepInstance) run(cache *episim.SweepCache, warm bool, trace *episim.SweepTrace, m *measurement) (firstCell float64, err error) {
	var once sync.Once
	start := time.Now()
	res, err := episim.RunSweepContext(context.Background(), s.spec, &episim.SweepOptions{
		Cache: cache, Trace: trace,
		OnCell: func(episim.SweepCellResult) { once.Do(func() { firstCell = time.Since(start).Seconds() }) },
	})
	if err != nil {
		return 0, err
	}
	if warm {
		s.lastWarm = res
	} else {
		s.last = res
	}
	if m != nil {
		m.attempted += len(res.Cells)
	}
	for _, c := range res.Cells {
		if c.Error != "" {
			if m != nil {
				m.failed++
			}
			err = fmt.Errorf("cell %s: %s", c.Label, c.Error)
		}
	}
	if err != nil {
		return 0, err
	}
	var builds int
	for _, n := range res.CheckpointBuilds {
		builds += n
	}
	wantBuilds, wantDays := s.checkpoints, s.simDays
	if warm {
		wantBuilds, wantDays = 0, s.simDays-int64(s.checkpoints*s.spec.ForkDay)
	}
	if len(res.Cells) != s.cells || res.Simulations != s.branchRuns || builds != wantBuilds || res.SimulatedDays != wantDays {
		return 0, fmt.Errorf("sweep ran %d cells, %d simulations, %d checkpoint builds, %d simulated days; want %d, %d, %d, %d",
			len(res.Cells), res.Simulations, builds, res.SimulatedDays, s.cells, s.branchRuns, wantBuilds, wantDays)
	}
	return firstCell, nil
}

// freshCache pre-warms a cache for one round, off the clock.
func (s *sweepInstance) freshCache(m *measurement) *episim.SweepCache {
	cache, err := s.warmCache()
	if err != nil {
		m.attempted++
		m.fail("pre-warm", err)
		return nil
	}
	return cache
}

func (s *sweepInstance) measure(d time.Duration) *measurement {
	m := &measurement{}
	repeatFor(d, minUnits, func() {
		cache := s.freshCache(m)
		if cache == nil {
			return
		}
		m.unit("sweep", &m.wall, func() error { _, err := s.run(cache, false, nil, m); return err })
		m.unit("warm sweep", &m.second, func() error { _, err := s.run(cache, true, nil, m); return err })
	})
	return m
}

func (s *sweepInstance) trace(d time.Duration, rec *recorder) *measurement {
	m := &measurement{}
	n := 0
	repeatFor(d, 1, func() {
		n++
		if cache := s.freshCache(m); cache != nil {
			m.unit("sweep", &m.wall, func() error { _, err := s.run(cache, false, nil, m); return err })
		}
		if cache := s.freshCache(m); cache != nil {
			m.unit("sweep traced", &m.traced, func() error {
				return s.tracedRun(rec, fmt.Sprintf("sweep-fork-%d", n), cache, m)
			})
		}
	})
	return m
}

// executorLayer maps the executor's span names onto the layer that does
// the work inside them: simulations and checkpoint prefixes are the day
// loop, builds belong to the layer that builds, everything else is the
// executor's own bookkeeping.
var executorLayer = map[string]string{
	"sim":                "core.sim",
	"checkpoint_build":   "core.checkpoint_build",
	"checkpoint_restore": "core.checkpoint_restore",
	"checkpoint_load":    "ensemble.checkpoint_load",
	"aggregate":          "ensemble.aggregate",
	"placement_build":    "partition.placement_build",
	"placement_load":     "ensemble.placement_load",
	"population_build":   "synthpop.population_build",
	"population_load":    "ensemble.population_load",
}

// importSpans re-parents executor spans (from a sweep's public timeline
// or a daemon's trace endpoint) under a span of the benchmark's.
func importSpans(rec *recorder, traceID string, parent int, spans []obs.Span) {
	for _, sp := range spans {
		name, ok := executorLayer[sp.Name]
		if !ok {
			name = "ensemble." + sp.Name
		}
		rec.add(traceID, parent, name, sp.Start, sp.End)
	}
}

// tracedRun is the same sweep with the executor's public Trace timeline
// switched on; its spans become children of the unit's span.
func (s *sweepInstance) tracedRun(rec *recorder, traceID string, cache *episim.SweepCache, m *measurement) error {
	tl := episim.NewSweepTrace(traceID)
	root := rec.begin(traceID, 0, "bench.unit")
	run := rec.begin(traceID, root, "ensemble.run")
	first, err := s.run(cache, false, tl, m)
	rec.end(run)
	rec.end(root)
	if err != nil {
		return err
	}
	spans, _ := tl.Snapshot()
	importSpans(rec, traceID, run, spans)
	stages := obs.RollupStages(spans)
	sim := stages["sim"].Seconds + stages["checkpoint_build"].Seconds + stages["checkpoint_restore"].Seconds
	aggregate := stages["aggregate"].Seconds
	wall := float64(rec.spanNS(run)) / 1e9
	workers := float64(s.spec.Workers)
	rec.count("ensemble.sim_busy_frac", sim/(workers*wall))
	rec.count("ensemble.overhead_ms", 1e3*(wall-sim/workers))
	rec.count("ensemble.aggregate_ms_per_cell", 1e3*aggregate/float64(s.cells))
	rec.count("ensemble.first_cell_ms", 1e3*first)
	rec.count("ensemble.checkpoint_builds", float64(s.checkpoints))
	rec.count("ensemble.checkpoint_restores", float64(cache.CheckpointRestores()))
	rec.count("ensemble.simulated_days", float64(s.last.SimulatedDays))
	rec.count("ensemble.placement_cache_hits", float64(cache.PlacementStats().Hits))
	return nil
}

// verify checks three of the repo's oracles on the last results (every
// unit already checked its own accounting in run): the branches of a
// cell share their pre-fork prefix, a cell's aggregate does not depend
// on how its population was distributed over ranks, and resuming from
// cached checkpoints gives the result that building them gave.
func (s *sweepInstance) verify() []check {
	type key struct{ a, b, c string }
	var prefixErr, placementErr error
	prefix := map[key][]float64{}
	curve := map[key][]float64{}
	for _, c := range s.last.Cells {
		k := key{c.Placement, c.Model, c.Scenario}
		head := c.MeanCurve[:s.spec.ForkDay]
		if prev, ok := prefix[k]; ok && !equalJSON(prev, head) {
			prefixErr = fmt.Errorf("%s: branches disagree before the fork day", c.Label)
		}
		prefix[k] = head
		k = key{c.Model, c.Scenario, c.Intervention}
		if prev, ok := curve[k]; ok && !equalJSON(prev, c.MeanCurve) {
			placementErr = fmt.Errorf("%s: mean curve depends on the placement", c.Label)
		}
		curve[k] = c.MeanCurve
	}
	var warmErr error
	if !equalJSON(s.last, s.lastWarm) {
		warmErr = fmt.Errorf("the sweep resumed from warm checkpoints differs from the one that built them")
	}
	return []check{{"shared pre-fork prefix", prefixErr}, {"placement invariance", placementErr}, {"warm = cold", warmErr}}
}

func (s *sweepInstance) digest() string { return digestJSON(s.last) }

func (s *sweepInstance) describe() map[string]any {
	pop := s.spec.Populations[0]
	return map[string]any{
		"persons": pop.People, "locations": pop.Locations,
		"cells": s.cells, "replicates": s.spec.Replicates, "branch_runs": s.branchRuns,
		"checkpoints": s.checkpoints, "simulated_days": s.simDays,
		"days": s.spec.Days, "fork_day": s.spec.ForkDay, "workers": s.spec.Workers,
		"units": []string{"sweep, checkpoints cold", "sweep, checkpoints warm"},
	}
}

func (s *sweepInstance) close() {}
