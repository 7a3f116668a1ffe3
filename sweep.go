package episim

import (
	"context"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/interventions"
	"repro/internal/obs"
	"repro/internal/synthpop"
)

// SweepTrace is a per-run span timeline (see SweepOptions.Trace); a
// server allocates one per submitted job and serves its snapshot on
// GET /v1/sweeps/{id}/trace. The zero value is unusable; nil is a
// valid "tracing off" value everywhere one is accepted.
type SweepTrace = obs.Timeline

// NewSweepTrace builds a timeline stamped with traceID.
func NewSweepTrace(traceID string) *SweepTrace { return obs.NewTimeline(traceID) }

// Re-exported sweep types: a SweepSpec declares grids over populations,
// placements, disease models and intervention scenarios with N seeded
// replicates per cell; RunSweep executes it and returns per-cell
// mean/quantile epidemic curves and attack-rate confidence intervals.
type (
	// SweepSpec is a declarative scenario sweep.
	SweepSpec = ensemble.Spec
	// SweepResult is a completed sweep with per-cell aggregates and
	// cache-reuse accounting.
	SweepResult = ensemble.SweepResult
	// SweepCellResult is the aggregate of one sweep cell.
	SweepCellResult = ensemble.CellResult
	// SweepPopulation, SweepPlacement, SweepModel and SweepScenario are
	// the axes of the sweep grid.
	SweepPopulation = ensemble.PopulationSpec
	SweepPlacement  = ensemble.PlacementSpec
	SweepModel      = ensemble.ModelSpec
	SweepScenario   = ensemble.ScenarioSpec
	// SweepIntervention is one branch of the intervention axis: a typed
	// schedule applied on top of every scenario from Spec.ForkDay on.
	SweepIntervention = ensemble.InterventionSpec
	// InterventionSchedule and its entry types describe a typed
	// intervention branch (compiled to scenario DSL rules at run time).
	InterventionSchedule    = interventions.Schedule
	InterventionClosure     = interventions.Closure
	InterventionVaccination = interventions.Vaccination
	InterventionQuarantine  = interventions.Quarantine
	// SweepSlots is a shared worker-slot pool bounding the total
	// simulation parallelism of every sweep that carries it.
	SweepSlots = ensemble.Slots
	// SweepCacheStats is a snapshot of one build cache's accounting.
	SweepCacheStats = ensemble.CacheStats
)

// NewSweepSlots builds a pool of n shared worker slots (n < 1 =
// GOMAXPROCS); pass it to several concurrent RunSweepContext calls to
// bound them together.
func NewSweepSlots(n int) *SweepSlots { return ensemble.NewSlots(n) }

// ParseSweepSpec decodes and validates a SweepSpec from JSON.
func ParseSweepSpec(r io.Reader) (*SweepSpec, error) { return ensemble.ParseSpec(r) }

// SweepCache holds process-lifetime population and placement caches.
// BuildPlacement dominates single-run wall time, so a server keeps one
// SweepCache for its whole life: concurrent requests with the same
// content keys share a single build (singleflight), repeated requests
// hit warm entries, and an LRU byte bound keeps the daemon's footprint
// flat. NewSweepCacheDir adds a disk tier behind the memory LRU, making
// the cache persistent across processes and restarts. The zero value is
// not usable; call NewSweepCache or NewSweepCacheDir.
type SweepCache struct {
	// caches and stores are indexed by artifact kind (see artifactKinds);
	// the stores back the disk tier and are nil for a memory-only cache.
	caches [len(artifactKinds)]*ensemble.Cache
	stores [len(artifactKinds)]*artifact.Store
	// ckptRestores counts branch simulations resumed from a checkpoint;
	// ckptBytes accumulates the estimated size of checkpoints built.
	ckptRestores atomic.Int64
	ckptBytes    atomic.Int64
}

// NewSweepCache builds a shared cache bounded to roughly maxBytes of
// retained populations, checkpoints and placements combined (0 =
// unbounded): the budget is split a quarter to populations, a quarter to
// fork-point checkpoints and half to placements, which dominate (each
// charges its population's bytes too — a split population is private to
// its placement — so the bound is conservative).
func NewSweepCache(maxBytes int64) *SweepCache {
	c := &SweepCache{}
	for i, k := range artifactKinds {
		c.caches[i] = ensemble.NewCache(maxBytes/4*k.quarters, k.size)
	}
	return c
}

// checkpointBytes approximates a checkpoint's retained size: the
// per-person health vectors dominate (~14 bytes each), plus the sparse
// infectious/progressing sets and the buffered prefix day reports.
func checkpointBytes(cp *core.Checkpoint) int64 {
	if cp == nil {
		return 0
	}
	n := int64(14*len(cp.States)) + 1024
	for _, set := range cp.Infectious {
		n += int64(4 * len(set))
	}
	for _, set := range cp.Progressing {
		n += int64(4 * len(set))
	}
	n += int64(2048 * len(cp.Days))
	return n
}

// populationBytes approximates a population's retained size (visits
// dominate: 16 bytes each). A person or location is charged what a
// reloaded one keeps, its struct plus its raw record in the file buffer
// the visit block is a view of (8 + 5 and 20 + 17 bytes), and each
// population a page of size-class rounding on each of its four large
// arrays.
func populationBytes(p *synthpop.Population) int64 {
	if p == nil {
		return 0
	}
	return int64(len(p.Visits))*16 +
		int64(len(p.Persons))*(8+5) +
		int64(len(p.Locations))*(20+17) +
		int64(len(p.PersonVisitOffsets))*4 +
		4*8192
}

// placementBytes approximates a placement's retained size: its rank maps,
// its population (a split one is private to it) and, from the start so
// that the charge never changes, the plan its first run builds.
func placementBytes(pl *Placement) int64 {
	return int64(4*(len(pl.PersonRank)+len(pl.LocationRank))) + populationBytes(pl.Pop) + planBytes(pl.Pop)
}

// planBytes approximates a built core.Plan: per visit, a location-ordered
// copy, its entry in the room index, a schedule slot, its events and group
// entry and a PM's slot reference, which names its location's manager; per
// person and location, the manager maps and lists, offsets, the room
// index's base and full-day counters; per sublocation, the room index's
// offset and longest visit.
func planBytes(p *synthpop.Population) int64 {
	var subs int64
	for i := range p.Locations {
		subs += int64(p.Locations[i].NumSub)
	}
	return 72*int64(len(p.Visits)) + 8*int64(len(p.Persons)) + 44*int64(len(p.Locations)) + 6*subs
}

// PopulationStats, PlacementStats and CheckpointStats snapshot the
// caches' hit/miss/eviction accounting (the substance of the daemon's
// /v1/stats reply).
func (c *SweepCache) PopulationStats() SweepCacheStats { return c.caches[kindPopulation].Stats() }
func (c *SweepCache) PlacementStats() SweepCacheStats  { return c.caches[kindPlacement].Stats() }
func (c *SweepCache) CheckpointStats() SweepCacheStats { return c.caches[kindCheckpoint].Stats() }

// CheckpointRestores counts branch simulations that resumed from a
// fork-point checkpoint instead of simulating the shared prefix.
func (c *SweepCache) CheckpointRestores() int64 { return c.ckptRestores.Load() }

// CheckpointBytes is the cumulative estimated size of checkpoints built
// through this cache.
func (c *SweepCache) CheckpointBytes() int64 { return c.ckptBytes.Load() }

// SweepOptions are the service-grade extensions to RunSweepContext. The
// zero value (or nil) reproduces RunSweep's one-shot behavior.
type SweepOptions struct {
	// Cache, when non-nil, shares populations and placements across
	// every run that carries it (and across their concurrent workers).
	Cache *SweepCache
	// CacheDir, when Cache is nil and CacheDir is non-empty, backs the
	// run's private cache with the persistent artifact store at this
	// directory (see NewSweepCacheDir) — placements built by any earlier
	// process are loaded instead of rebuilt, and this run's builds are
	// written through for the next one.
	CacheDir string
	// OnCell streams each cell's aggregate the moment the cell
	// finalizes — before the rest of the grid completes. Called
	// concurrently from worker goroutines.
	OnCell func(SweepCellResult)
	// Slots, when non-nil, bounds this run's simulation work jointly
	// with every other run sharing the pool.
	Slots *SweepSlots
	// Trace, when non-nil, records the run's stage spans (population/
	// placement builds, per-replicate simulations, per-cell aggregation)
	// into the given timeline — the substance of the service's
	// GET /v1/sweeps/{id}/trace endpoint.
	Trace *SweepTrace
}

// resolveSweepOptions turns public options into executor options,
// creating a run-private SweepCache when none is shared, so a private run
// still reports its checkpoint counters.
func resolveSweepOptions(opts *SweepOptions) (*ensemble.RunOptions, *SweepCache, error) {
	if opts == nil {
		opts = &SweepOptions{}
	}
	cache := opts.Cache
	if cache == nil {
		var err error
		cache, err = NewSweepCacheDir(0, opts.CacheDir)
		if err != nil {
			return nil, nil, err
		}
	}
	return &ensemble.RunOptions{
		PopulationCache: cache.caches[kindPopulation],
		PlacementCache:  cache.caches[kindPlacement],
		CheckpointCache: cache.caches[kindCheckpoint],
		OnCell:          opts.OnCell,
		Slots:           opts.Slots,
		Trace:           opts.Trace,
	}, cache, nil
}

// RunSweep executes a scenario sweep over the grid the spec declares,
// with a bounded worker pool (spec.Workers) and a content-keyed cache
// that generates and partitions each unique (population, placement) pair
// exactly once — BuildPlacement dominates single-run wall time, so an
// R-replicate, S-scenario sweep reuses each placement R×S times. Results
// stream into per-cell aggregates; the output is byte-identical for any
// worker count.
func RunSweep(spec *SweepSpec) (*SweepResult, error) {
	return RunSweepContext(context.Background(), spec, nil)
}

// RunSweepContext is RunSweep with cancellation and service hooks: a
// canceled ctx stops dispatching promptly (in-flight replicates finish)
// and returns ctx.Err(); opts wires cross-request caching, per-cell
// streaming and a shared worker-slot pool. Cells are dispatched longest
// first by persons × simulated days, an order read from the spec alone,
// cutting makespan on grids with skewed cell sizes. When some cells fail,
// RunSweepContext returns the partial result alongside the error; failed
// cells carry Error in place of aggregates. A panic in opts.OnCell is
// returned as the error beside the whole result.
func RunSweepContext(ctx context.Context, spec *SweepSpec, opts *SweepOptions) (*SweepResult, error) {
	ro, cache, err := resolveSweepOptions(opts)
	if err != nil {
		return nil, err
	}
	return ensemble.RunContext(ctx, spec, sweepHooks(cache), ro)
}

// SweepWarmResult reports what WarmSweep built versus found cached.
type SweepWarmResult = ensemble.WarmResult

// WarmSweep builds every unique population and placement of the spec's
// grid without running a single simulation — the pre-warm pass behind
// `episim sweep -warm -cache-dir`: CI or an operator populates the artifact
// store once, and every subsequent run of the spec (any process, any
// machine sharing the directory) performs zero placement builds.
func WarmSweep(ctx context.Context, spec *SweepSpec, opts *SweepOptions) (*SweepWarmResult, error) {
	ro, cache, err := resolveSweepOptions(opts)
	if err != nil {
		return nil, err
	}
	return ensemble.WarmContext(ctx, spec, sweepHooks(cache), ro)
}

// combinedScenarioText is the scenario a cell's branch actually runs:
// the base scenario text with the intervention schedule's compiled rules
// appended (legacy cells — no intervention — run the base text alone).
// Every compiled rule triggers strictly after Spec.ForkDay, so the
// combined scenario's prefix behavior is identical to the base
// scenario's — the foundation of fork-vs-scratch byte identity.
func combinedScenarioText(job ensemble.Job) string {
	base := job.Cell.Scenario.Text
	if job.Cell.Intervention == nil {
		return base
	}
	branch := job.Cell.Intervention.Compile()
	if branch == "" {
		return base
	}
	if strings.TrimSpace(base) == "" {
		return branch
	}
	return strings.TrimRight(base, "\n") + "\n" + branch
}

// simConfigFor maps a sweep job onto a SimConfig running the given
// scenario text.
func simConfigFor(job ensemble.Job, scenario string) SimConfig {
	return SimConfig{
		Days:              job.Spec.Days,
		Seed:              job.Seed,
		InitialInfections: job.Spec.InitialInfections,
		Model:             job.Model,
		Scenario:          scenario,
		AggBufferSize:     job.Spec.AggBufferSize,
		Mixing:            job.Spec.Mixing,
		Kernel:            job.Spec.Kernel,
		KernelThreshold:   job.Spec.KernelThreshold,
	}
}

// sweepHooks wires the real engine into the ensemble executor. Every
// replicate is Start then Finish: a plain cell starts at day 0, and an
// intervention cell resumes from the checkpoint BuildCheckpoint left at
// the fork day, so the shared scenario prefix simulates once per
// checkpoint key.
func sweepHooks(cache *SweepCache) ensemble.Hooks {
	return ensemble.Hooks{
		GeneratePopulation: func(ps ensemble.PopulationSpec, seed uint64) (*synthpop.Population, error) {
			if ps.State != "" {
				return synthpop.GenerateState(ps.State, ps.Scale, seed)
			}
			return synthpop.Generate(synthpop.DefaultConfig(ps.Name, ps.People, ps.Locations, seed)), nil
		},
		BuildPlacement: func(pop *synthpop.Population, ps ensemble.PlacementSpec, seed uint64) (any, error) {
			strat := RR
			if strings.ToUpper(ps.Strategy) == "GP" {
				strat = GP
			}
			return BuildPlacement(pop, PlacementOptions{
				Strategy:  strat,
				SplitLoc:  ps.SplitLoc,
				Ranks:     ps.Ranks,
				Seed:      seed,
				Imbalance: ps.Imbalance,
			})
		},
		BuildCheckpoint: func(pl any, job ensemble.Job) (any, error) {
			// The prefix runs the base scenario only: branch rules cannot
			// fire before the fork day, so the checkpoint is shared by
			// every branch of the cell's intervention axis.
			eng, err := newSimEngine(pl.(*Placement), simConfigFor(job, job.Cell.Scenario.Text))
			if err != nil {
				return nil, err
			}
			cp, err := eng.RunPrefix(job.Spec.ForkDay)
			if err != nil {
				return nil, err
			}
			cache.ckptBytes.Add(checkpointBytes(cp))
			return cp, nil
		},
		Start: func(pl, checkpoint any, job ensemble.Job) (any, error) {
			// The scenario text is re-parsed per run on purpose: a parsed
			// interventions.Scenario carries mutable rule-fired state, so
			// concurrent replicates cannot share one instance, and the
			// parse is microseconds against a multi-ms simulation.
			eng, err := newSimEngine(pl.(*Placement), simConfigFor(job, combinedScenarioText(job)))
			if err != nil {
				return nil, err
			}
			if checkpoint != nil {
				if err := eng.Restore(checkpoint.(*core.Checkpoint)); err != nil {
					return nil, err
				}
				cache.ckptRestores.Add(1)
			}
			return eng, nil
		},
		Finish: func(engine any, job ensemble.Job) (*core.Result, error) {
			return engine.(*core.Engine).Run()
		},
	}
}
