package ensemble

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/obs"
	"repro/internal/synthpop"
)

// Job is one unit of executor work: a single replicate of a single cell.
type Job struct {
	Cell      Cell
	Replicate int
	// Seed is the replicate's content-derived simulation seed.
	Seed uint64
	// Model is the cell's resolved disease model, shared read-only.
	Model *disease.Model
	// Spec points at the sweep being executed (Days, AggBufferSize, ...).
	Spec *Spec
}

// Hooks are the three engine operations the sweep needs, injected by the
// root package (an import there would be a cycle). Implementations must
// be safe for concurrent use; placements returned by BuildPlacement are
// shared read-only across every replicate and scenario that uses them.
type Hooks struct {
	// GeneratePopulation synthesizes the population for a spec (seed is
	// the already-resolved generation seed).
	GeneratePopulation func(PopulationSpec, uint64) (*synthpop.Population, error)
	// BuildPlacement distributes a population over ranks. The returned
	// handle is passed back to Simulate verbatim.
	BuildPlacement func(*synthpop.Population, PlacementSpec, uint64) (any, error)
	// Simulate runs one replicate on a cached placement.
	Simulate func(placement any, job Job) (*core.Result, error)

	// The fork-mode trio, used for cells with an intervention branch when
	// all three are present (otherwise such cells run Simulate from
	// scratch, which is always correct, just slower). BuildCheckpoint
	// simulates the replicate's shared pre-fork prefix under the base
	// scenario and returns an opaque checkpoint handle; the handle is
	// cached under Cell.CheckpointKey and shared read-only by every
	// intervention branch of the (cell, replicate). RestoreCheckpoint
	// loads it into a fresh engine carrying the branch's combined
	// scenario; ResumeSimulate finishes the remaining days.
	BuildCheckpoint   func(placement any, job Job) (any, error)
	RestoreCheckpoint func(placement any, checkpoint any, job Job) (any, error)
	ResumeSimulate    func(engine any, job Job) (*core.Result, error)
}

// forkCapable reports whether fork-mode execution is wired.
func (h Hooks) forkCapable() bool {
	return h.BuildCheckpoint != nil && h.RestoreCheckpoint != nil && h.ResumeSimulate != nil
}

// RunOptions are the service-grade extensions to a sweep run. The zero
// value (or a nil pointer) reproduces the one-shot behavior: private
// caches, no streaming, grid-order dispatch, a private worker pool.
type RunOptions struct {
	// PopulationCache and PlacementCache, when non-nil, replace the
	// run-private build caches — the server passes process-lifetime
	// caches here so placements are shared across requests.
	PopulationCache *Cache
	PlacementCache  *Cache
	// CheckpointCache, when non-nil, replaces the run-private fork-point
	// checkpoint cache — the server passes a process-lifetime cache here
	// so a warm re-submission pays zero prefix days.
	CheckpointCache *Cache
	// OnCell is invoked the moment a cell finalizes — when its last
	// replicate lands, or immediately on its first error (Error set,
	// aggregates empty) — which is what lets a server stream aggregates
	// while the rest of the grid is still running. Called concurrently
	// from worker goroutines; implementations must be safe for
	// concurrent use and should return quickly.
	OnCell func(CellResult)
	// PredictCost, when non-nil, prices a cell before dispatch; jobs are
	// fed to the worker pool most-expensive-cell-first (stable on ties),
	// the classic longest-processing-time heuristic that cuts makespan
	// on wide grids with skewed cell sizes. The spec argument is the
	// normalized private copy (defaults resolved).
	PredictCost func(Cell, *Spec) float64
	// Slots, when non-nil, gates every job on a shared slot pool so
	// several concurrent sweeps are bounded together; each run still
	// spawns its own Workers goroutines but only min(Workers, free
	// slots) make progress at once.
	Slots *Slots
	// Trace, when non-nil, receives named spans for the run's stages:
	// population/placement builds and slow cache loads, every replicate
	// simulation, and per-cell aggregation. All Timeline methods are
	// nil-safe, so the executor records unconditionally.
	Trace *obs.Timeline
}

// SweepResult is a completed sweep: one aggregated CellResult per grid
// cell (in grid order), plus cache accounting proving build reuse.
type SweepResult struct {
	Spec  *Spec        `json:"spec"`
	Cells []CellResult `json:"cells"`
	// PopulationBuilds and PlacementBuilds count, per content key this
	// run requested, how many times the run actually generated or
	// partitioned it — exactly 1 per key for a fresh cache, 0 when a
	// shared or disk-backed cache already held it (so summing across
	// concurrent requests proves a single build). Like Workers, they are
	// execution accounting, not part of the result: a cold and a warm
	// run of the same spec must emit byte-identical JSON, so neither map
	// is serialized.
	PopulationBuilds map[string]int `json:"-"`
	PlacementBuilds  map[string]int `json:"-"`
	// CheckpointBuilds counts fork-point prefix builds per checkpoint key
	// (0 = restored from a shared or disk-backed cache). Execution
	// accounting like the build maps — never serialized.
	CheckpointBuilds map[string]int `json:"-"`
	// Simulations is the total number of replicate runs executed.
	Simulations int `json:"simulations"`
	// SimulatedDays counts the days the run actually stepped, summed over
	// prefix builds and replicate runs — the fork-mode amortization
	// measure (a 16-branch forked sweep steps far fewer days than 16
	// from-scratch runs). Execution accounting, never serialized.
	SimulatedDays int64 `json:"-"`
}

// errCanceled reports a build-step get abandoned because the run's
// context was canceled while it waited on another caller's in-flight
// build: the run is over, but nothing failed.
var errCanceled = errors.New("ensemble: canceled while waiting for a build")

// buildStep is one artifact kind's build-once state within one run: its
// cache (shared, or run-private when the caller passed none) and, per
// content key the run requested, how many builds the run itself
// triggered (0 = some cache tier already held it).
type buildStep struct {
	kind   string // error noun and span-name prefix: "population", ...
	cache  *Cache
	builds map[string]int
}

// buildSteps runs every cached build of one sweep or warm pass.
type buildSteps struct {
	ctx   context.Context
	trace *obs.Timeline

	population, placement, checkpoint buildStep
	// placed counts placements that became exactly priceable (see place).
	placed atomic.Int64

	// failed is the run-private negative memo. Shared caches forget
	// failed builds so later requests may retry a transient failure;
	// within ONE run a failing key is deterministic wasted work, so every
	// other user of that key fails fast after the first attempt.
	mu     sync.Mutex
	failed map[string]error
}

func newBuildSteps(ctx context.Context, opts *RunOptions) *buildSteps {
	step := func(kind string, cache *Cache) buildStep {
		if cache == nil {
			cache = NewCache(0, nil) // run-private: unbounded, entry-counted
		}
		return buildStep{kind, cache, map[string]int{}}
	}
	return &buildSteps{
		ctx:        ctx,
		trace:      opts.Trace,
		population: step("population", opts.PopulationCache),
		placement:  step("placement", opts.PlacementCache),
		checkpoint: step("checkpoint", opts.CheckpointCache),
		failed:     map[string]error{},
	}
}

// get is the one build step: fetch key from the step's cache, running
// build at most once across every goroutine and sweep sharing it, and
// account for the outcome in the negative memo, the build tally and the
// trace. Every actual build gets a "<kind>_build" span; a get that
// merely waited — on another worker's in-flight build or a disk-tier
// load — is traced as "<kind>_load" only when it took noticeable time,
// so a warm sweep's thousands of instantaneous memory hits don't flood
// the timeline (the cache counters already account for them). label
// names the artifact in errors, spanLabel in the trace.
func (b *buildSteps) get(s *buildStep, key, label, spanLabel string, build func() (any, error)) (val any, built bool, err error) {
	fail := func(err error) (any, bool, error) {
		return nil, false, fmt.Errorf("ensemble: %s %s: %w", s.kind, label, err)
	}
	b.mu.Lock()
	prior := b.failed[key]
	b.mu.Unlock()
	if prior != nil {
		return fail(prior)
	}
	ctx, start := b.ctx, time.Now()
	val, built, err = s.cache.get(ctx, key, build)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, errCanceled
		}
		b.mu.Lock()
		if _, ok := b.failed[key]; !ok {
			b.failed[key] = err
		}
		b.mu.Unlock()
		return fail(err)
	}
	n := 0
	if end := time.Now(); built {
		n = 1
		b.trace.Add(s.kind+"_build", spanLabel, start, end)
	} else if end.Sub(start) >= time.Millisecond {
		b.trace.Add(s.kind+"_load", spanLabel, start, end)
	}
	b.mu.Lock()
	s.builds[key] += n // a zero entry still records that the run needed the key
	b.mu.Unlock()
	return val, built, nil
}

// place returns the placement a cell runs on and its content key,
// generating the population and distributing it at most once each.
func (b *buildSteps) place(hooks Hooks, spec *Spec, ps PopulationSpec, pls PlacementSpec) (pl any, plKey string, err error) {
	popKey := ps.Key(spec.Seed)
	popSeed := ps.Seed
	if popSeed == 0 {
		popSeed = spec.Seed
	}
	pop, _, err := b.get(&b.population, popKey, ps.Label(), ps.Label(), func() (any, error) {
		return hooks.GeneratePopulation(ps, popSeed)
	})
	if err != nil {
		return nil, "", err
	}
	plKey = pls.Key(popKey)
	// The cost predictor prices exactly only what it can Peek; note
	// whether this key is about to transition from estimated to exact
	// (via a build OR a disk-tier promotion) so the feeder re-prices its
	// remaining queue either way.
	_, wasPeekable := b.placement.cache.Peek(plKey)
	pl, _, err = b.get(&b.placement, plKey, pls.Label(), pls.Label(), func() (any, error) {
		return hooks.BuildPlacement(pop.(*synthpop.Population), pls, popSeed)
	})
	if err == nil && !wasPeekable {
		b.placed.Add(1)
	}
	return pl, plKey, err
}

// Run executes the sweep with one-shot semantics: background context,
// run-private caches, no streaming. See RunContext.
func Run(spec *Spec, hooks Hooks) (*SweepResult, error) {
	return RunContext(context.Background(), spec, hooks, nil)
}

// RunContext executes the sweep: normalize and validate the spec,
// enumerate the grid, then drive (cell, replicate) jobs through a
// bounded worker pool, most-expensive-cell-first when opts.PredictCost
// is set. Unique populations and placements are built once via the
// content-keyed caches (shared process-lifetime caches when opts
// provides them); each replicate streams into its cell's aggregator, and
// each cell finalizes — and reaches opts.OnCell — the moment its last
// replicate lands. The output is byte-identical for any Workers value
// and any dispatch order because aggregation slots are addressed by
// replicate index and results by grid index, never by completion order.
//
// Cancellation: when ctx is canceled the executor stops dispatching,
// lets in-flight simulations and builds finish (builds always run to
// completion because, under a shared cache, other requests may be
// waiting on them; only the WAIT on someone else's build is ctx-aware),
// and returns ctx.Err(). A failing
// cell does NOT abort the sweep: the cell is marked failed (remaining
// replicates are skipped), every other cell still runs, and RunContext
// returns the partial result alongside an error summarizing the failed
// cells.
func RunContext(ctx context.Context, spec *Spec, hooks Hooks, opts *RunOptions) (*SweepResult, error) {
	if hooks.GeneratePopulation == nil || hooks.BuildPlacement == nil || hooks.Simulate == nil {
		return nil, fmt.Errorf("ensemble: incomplete hooks")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts == nil {
		opts = &RunOptions{}
	}
	// Work on a private copy: Normalize fills defaults, and the result
	// embeds the spec — neither should touch the caller's struct.
	spec = spec.clone()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()

	// Resolve each model once; replicates share it read-only.
	models := make([]*disease.Model, len(spec.Models))
	for i, m := range spec.Models {
		model, err := m.Resolve()
		if err != nil {
			return nil, err
		}
		models[i] = model
	}

	builds := newBuildSteps(ctx, opts)

	aggs := make([]*aggregator, len(cells))
	for i := range aggs {
		aggs[i] = newAggregator(spec.Replicates)
	}

	// Cost-ordered dispatch: price every cell up front, then feed the
	// pool most-expensive-first (LPT). Ties and the nil-predictor case
	// keep grid order; results are grid-indexed so ordering never
	// affects output bytes.
	//
	// Cold placements are priced by an analytic estimate; the moment a
	// placement build completes, the predictor can price exactly (it
	// peeks the now-populated cache), so the feeder re-prices and
	// re-sorts the cells not yet dispatched — the warm-up pass that
	// fixes LPT's makespan on mixed exact/estimated grids. builds.placed
	// counts placements that became priceable; the feeder re-sorts whenever
	// it observes a new generation.
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	costs := make([]float64, len(cells))
	reprice := func(idxs []int) {
		for _, ci := range idxs {
			costs[ci] = opts.PredictCost(cells[ci], spec)
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			return costs[idxs[a]] > costs[idxs[b]]
		})
	}
	if opts.PredictCost != nil {
		reprice(order)
	}

	// Per-cell completion state: remaining replicates, the first error,
	// and the finalized result — all under one mutex that also publishes
	// every aggregator write to whichever worker finalizes the cell.
	type cellState struct {
		remaining int
		err       error
	}
	states := make([]cellState, len(cells))
	for i := range states {
		states[i].remaining = spec.Replicates
	}
	results := make([]CellResult, len(cells))
	var (
		stMu    sync.Mutex
		sims    atomic.Int64
		simDays atomic.Int64
	)

	emit := func(res CellResult) {
		if opts.OnCell != nil {
			opts.OnCell(res)
		}
	}
	failCell := func(ci int, err error) {
		stMu.Lock()
		if states[ci].err != nil {
			stMu.Unlock()
			return
		}
		states[ci].err = err
		res := errorCellResult(cells[ci], err)
		results[ci] = res
		stMu.Unlock()
		emit(res)
	}
	completeReplicate := func(ci int) {
		stMu.Lock()
		states[ci].remaining--
		done := states[ci].remaining == 0 && states[ci].err == nil
		stMu.Unlock()
		if !done {
			return
		}
		aggStart := time.Now()
		res := aggs[ci].finalize(cells[ci], spec.Quantiles, spec.Confidence)
		opts.Trace.Add("aggregate", cells[ci].Label(), aggStart, time.Now())
		stMu.Lock()
		results[ci] = res
		stMu.Unlock()
		emit(res)
	}
	cellFailed := func(ci int) bool {
		stMu.Lock()
		defer stMu.Unlock()
		return states[ci].err != nil
	}

	type job struct {
		cellIdx   int
		replicate int
	}
	runJob := func(j job) error {
		cell := cells[j.cellIdx]
		pl, plKey, err := builds.place(hooks, spec, cell.Population, cell.Placement)
		if err != nil {
			return err
		}

		jobVal := Job{
			Cell:      cell,
			Replicate: j.replicate,
			Seed:      cell.ReplicateSeed(spec.Seed, j.replicate),
			Model:     models[cell.modelIdx],
			Spec:      spec,
		}

		var res *core.Result
		var simStart time.Time
		if cell.Intervention != nil && hooks.forkCapable() {
			// Fork path: build (or load) the replicate's shared pre-fork
			// checkpoint once, then resume each intervention branch from it.
			ckKey := cell.CheckpointKey(spec, plKey, jobVal.Seed)
			ckLabel := fmt.Sprintf("%s r%d", cell.Label(), j.replicate)
			ckSpan := fmt.Sprintf("%s day %d", ckLabel, spec.ForkDay)
			ck, built, err := builds.get(&builds.checkpoint, ckKey, ckLabel, ckSpan, func() (any, error) {
				return hooks.BuildCheckpoint(pl, jobVal)
			})
			if err != nil {
				return err
			}
			if built {
				simDays.Add(int64(spec.ForkDay))
			}

			restoreStart := time.Now()
			eng, err := hooks.RestoreCheckpoint(pl, ck, jobVal)
			opts.Trace.Add("checkpoint_restore", ckSpan, restoreStart, time.Now())
			if err != nil {
				return fmt.Errorf("ensemble: restore %s r%d: %w", cell.Label(), j.replicate, err)
			}
			sims.Add(1)
			simStart = time.Now()
			res, err = hooks.ResumeSimulate(eng, jobVal)
			if err == nil {
				simDays.Add(int64(spec.Days - spec.ForkDay))
			}
			traceSim(opts, cell, j.replicate, res, simStart)
			if err != nil {
				return fmt.Errorf("ensemble: cell %s replicate %d: %w", cell.Label(), j.replicate, err)
			}
		} else {
			sims.Add(1)
			simStart = time.Now()
			var err error
			res, err = hooks.Simulate(pl, jobVal)
			if res != nil {
				simDays.Add(int64(len(res.Days)))
			}
			traceSim(opts, cell, j.replicate, res, simStart)
			if err != nil {
				return fmt.Errorf("ensemble: cell %s replicate %d: %w", cell.Label(), j.replicate, err)
			}
		}
		aggs[j.cellIdx].add(j.replicate, res)
		completeReplicate(j.cellIdx)
		return nil
	}

	jobs := make(chan job)
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain without starting new work
				}
				if cellFailed(j.cellIdx) {
					continue // sibling replicate already failed the cell
				}
				if err := opts.Slots.acquire(ctx); err != nil {
					continue
				}
				err := runJob(j)
				opts.Slots.release()
				if err != nil && err != errCanceled {
					failCell(j.cellIdx, err)
				}
			}
		}()
	}

	// The feeder dispatches cell by cell from a mutable priority queue:
	// before popping the next cell it checks whether any placement build
	// completed since it last priced the queue, and if so re-prices and
	// re-sorts what's left (exact machine-model costs replace analytic
	// estimates as placements materialize).
	pending := order
	var pricedGen int64
feed:
	for len(pending) > 0 {
		if opts.PredictCost != nil {
			if g := builds.placed.Load(); g != pricedGen {
				pricedGen = g
				reprice(pending)
			}
		}
		ci := pending[0]
		pending = pending[1:]
		for r := 0; r < spec.Replicates; r++ {
			select {
			case jobs <- job{cellIdx: ci, replicate: r}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A cancel that lands as (or after) the last cell finalizes must
		// not discard a whole result: when every cell already reached a
		// terminal state, the sweep effectively completed — fall through
		// and return it.
		complete := true
		for i := range states {
			if states[i].remaining > 0 && states[i].err == nil {
				complete = false
				break
			}
		}
		if !complete {
			return nil, err
		}
	}

	// The result embeds the (already private) spec for provenance, minus
	// Workers: concurrency affects execution time, never results, and the
	// emitted JSON must be byte-identical across worker counts.
	spec.Workers = 0
	out := &SweepResult{
		Spec:             spec,
		Cells:            results,
		PopulationBuilds: builds.population.builds,
		PlacementBuilds:  builds.placement.builds,
		CheckpointBuilds: builds.checkpoint.builds,
		Simulations:      int(sims.Load()),
		SimulatedDays:    simDays.Load(),
	}
	var failed []int
	for ci := range states {
		if states[ci].err != nil {
			failed = append(failed, ci)
		}
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("ensemble: %d of %d cells failed; first: %w",
			len(failed), len(cells), states[failed[0]].err)
	}
	return out, nil
}

// traceSim records one replicate's simulation span, tagging the label
// with the per-kernel day tally when the run reported one (the timeline's
// span budget forbids a span per simulated day, so the replicate span
// carries the tally instead, e.g. "... kernel[active=38 dense=2]").
func traceSim(opts *RunOptions, cell Cell, replicate int, res *core.Result, start time.Time) {
	label := fmt.Sprintf("%s r%d", cell.Label(), replicate)
	if res != nil && len(res.KernelDays) > 0 {
		label += " kernel[" + kernelDaysLabel(res.KernelDays) + "]"
	}
	opts.Trace.Add("sim", label, start, time.Now())
}

// errorCellResult is the placeholder emitted for a failed cell: labels
// and Error set, aggregates empty.
func errorCellResult(cell Cell, err error) CellResult {
	return CellResult{
		Index:        cell.Index,
		Label:        cell.Label(),
		Population:   cell.Population.Label(),
		Placement:    cell.Placement.Label(),
		Model:        cell.Model.Name,
		Scenario:     cell.Scenario.Name,
		Intervention: cell.InterventionName(),
		Error:        err.Error(),
	}
}

// Slots is a counting semaphore shared by concurrent sweeps so one
// process-wide bound governs total simulation parallelism no matter how
// many requests are in flight. A nil *Slots is a no-op gate.
type Slots struct {
	ch chan struct{}
}

// NewSlots builds a pool of n shared worker slots (n < 1 is clamped to
// GOMAXPROCS).
func NewSlots(n int) *Slots {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Slots{ch: make(chan struct{}, n)}
}

func (s *Slots) acquire(ctx context.Context) error {
	if s == nil {
		return nil
	}
	select {
	case s.ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Slots) release() {
	if s == nil {
		return
	}
	<-s.ch
}

// kernelDaysLabel renders a kernel-day tally deterministically
// ("active=38 dense=2"), sorted by kernel name.
func kernelDaysLabel(kd map[string]int64) string {
	names := make([]string, 0, len(kd))
	for k := range kd {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, kd[k])
	}
	return b.String()
}
