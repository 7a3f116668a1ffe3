package ensemble

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
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

// Hooks are the engine operations the sweep needs, injected by the root
// package (an import there would be a cycle). Every field is required.
// Implementations must be safe for concurrent use; placements returned by
// BuildPlacement are shared read-only across every replicate and scenario
// that uses them.
//
// Every replicate makes the same two calls: Start, then Finish. A cell
// with an intervention branch always forks: its replicate's pre-fork
// prefix is simulated once by BuildCheckpoint, cached under
// Cell.CheckpointKey and shared read-only by every branch, and Start
// resumes the branch from it. A plain cell starts at day 0.
type Hooks struct {
	// GeneratePopulation synthesizes the population for a spec (seed is
	// the already-resolved generation seed).
	GeneratePopulation func(PopulationSpec, uint64) (*synthpop.Population, error)
	// BuildPlacement distributes a population over ranks. The returned
	// handle is passed back to the other hooks verbatim.
	BuildPlacement func(*synthpop.Population, PlacementSpec, uint64) (any, error)
	// BuildCheckpoint simulates the replicate's shared pre-fork prefix
	// under the base scenario and returns an opaque checkpoint handle.
	BuildCheckpoint func(placement any, job Job) (any, error)
	// Start builds the replicate's engine carrying the cell's combined
	// scenario: at day 0 when checkpoint is nil, otherwise restored from
	// the checkpoint.
	Start func(placement, checkpoint any, job Job) (engine any, err error)
	// Finish runs a started engine to the horizon.
	Finish func(engine any, job Job) (*core.Result, error)
}

// RunOptions are the service-grade extensions to a sweep run. The zero
// value (or a nil pointer) reproduces the one-shot behavior: private
// caches, no streaming, a private worker pool.
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
	return b.getAfter(s, key, label, spanLabel, nil, func(any) (any, error) { return build() })
}

// needErr carries the failure of a build's need through the cache, so
// every caller of the dependent key gets need's own error.
type needErr struct{ err error }

func (e needErr) Error() string { return e.err.Error() }
func (e needErr) Unwrap() error { return e.err }

// getAfter is get for a build that first needs another step's value (a
// placement needs its population). need runs only when key is built, and
// build receives its value. A failed need surfaces as need's own error
// and is left to need's step to memoize, and the "<kind>_build" span
// starts once need has returned, so it never overlaps need's spans.
func (b *buildSteps) getAfter(s *buildStep, key, label, spanLabel string, need func() (any, error), build func(any) (any, error)) (val any, built bool, err error) {
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
	buildStart := start
	run := func() (any, error) {
		var in any
		if need != nil {
			var err error
			if in, err = need(); err != nil {
				return nil, needErr{err}
			}
		}
		buildStart = time.Now()
		return build(in)
	}
	for {
		val, built, err = s.cache.get(ctx, key, run)
		// Another run that was building key gave up while it waited on
		// the need; this run was not canceled, so it takes the build over.
		if !errors.Is(err, errCanceled) || ctx.Err() != nil {
			break
		}
	}
	if ne := (needErr{}); errors.As(err, &ne) {
		return nil, false, ne.err
	}
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
		b.trace.Add(s.kind+"_build", spanLabel, buildStart, end)
	} else if end.Sub(start) >= time.Millisecond {
		b.trace.Add(s.kind+"_load", spanLabel, start, end)
	}
	b.mu.Lock()
	s.builds[key] += n // a zero entry still records that the run needed the key
	b.mu.Unlock()
	return val, built, nil
}

// place returns the placement a cell runs on and its content key. It
// looks the placement up first: one served from memory or disk embeds
// the population it runs on (the base one if unsplit, the split one
// otherwise), so the population is fetched, from its cache or by
// generating it, only to build a placement. Each is built at most once.
func (b *buildSteps) place(hooks Hooks, spec *Spec, ps PopulationSpec, pls PlacementSpec) (pl any, plKey string, err error) {
	popKey := ps.Key(spec.Seed)
	popSeed := ps.Seed
	if popSeed == 0 {
		popSeed = spec.Seed
	}
	plKey = pls.Key(popKey)
	pl, built, err := b.getAfter(&b.placement, plKey, pls.Label(), pls.Label(), func() (any, error) {
		pop, _, err := b.get(&b.population, popKey, ps.Label(), ps.Label(), func() (any, error) {
			return hooks.GeneratePopulation(ps, popSeed)
		})
		return pop, err
	}, func(pop any) (any, error) {
		return hooks.BuildPlacement(pop.(*synthpop.Population), pls, popSeed)
	})
	if err != nil {
		return nil, "", err
	}
	if !built {
		// The run needed the population too, and a tier held it inside
		// the placement: a zero entry, as a served population would be.
		b.mu.Lock()
		b.population.builds[popKey] += 0
		b.mu.Unlock()
	}
	return pl, plKey, nil
}

// RunContext executes the sweep in three steps: prepare (a private,
// normalized and validated spec with its models resolved), dispatch
// ((cell, replicate) tasks through the bounded worker pool, longest
// cell first by costOrdered) and collect (each replicate streams into its
// cell's aggregator, and each cell finalizes — and reaches opts.OnCell —
// the moment its last replicate lands). Unique populations, placements
// and checkpoints are built once via the content-keyed caches (shared
// process-lifetime caches when opts provides them). The output is
// byte-identical for any Workers value and any dispatch order because
// aggregation slots are addressed by replicate index and results by grid
// index, never by completion order.
//
// Cancellation: when ctx is canceled the executor stops dispatching,
// lets in-flight simulations and builds finish (builds always run to
// completion because, under a shared cache, other requests may be
// waiting on them; only the WAIT on someone else's build is ctx-aware),
// and returns ctx.Err(). A failing or panicking replicate does NOT abort
// the sweep: its cell is marked failed (remaining replicates are
// skipped), every other cell still runs, and RunContext returns the
// partial result alongside an error summarizing the failed cells. A panic
// in opts.OnCell is recovered too: the sweep runs on, and RunContext
// returns the result beside the first such panic.
func RunContext(ctx context.Context, spec *Spec, hooks Hooks, opts *RunOptions) (*SweepResult, error) {
	r, err := prepare(ctx, spec, hooks, opts)
	if err != nil {
		return nil, err
	}
	n := len(r.cells)
	r.remaining, r.errs = make([]int, n), make([]error, n)
	r.aggs, r.results = make([]*aggregator, n), make([]CellResult, n)
	for i := range r.cells {
		r.remaining[i] = r.spec.Replicates
		r.aggs[i] = newAggregator(r.spec.Replicates)
	}
	r.dispatch(n*r.spec.Replicates, r.costOrdered, func(t task) {
		if r.failed(t.cell) || r.opts.Slots.acquire(r.ctx) != nil {
			return // a sibling replicate already failed the cell, or canceled
		}
		res, err := r.replicate(t.cell, t.replicate)
		if err == nil {
			r.add(t.cell, t.replicate, res)
		} else if !errors.Is(err, errCanceled) {
			r.fail(t.cell, err)
		}
		r.opts.Slots.release()
	})
	return r.result()
}

// run is one sweep or warm pass: the private spec, its grid and resolved
// models and the build steps every worker shares, then RunContext's
// collect state.
type run struct {
	ctx    context.Context
	spec   *Spec
	hooks  Hooks
	opts   *RunOptions
	cells  []Cell
	models []*disease.Model
	builds *buildSteps

	// Per cell: replicates still to land, the first error, the
	// aggregator and the terminal result, under one mutex that also
	// publishes every aggregator write to whichever worker finalizes the
	// cell (a warm pass guards its first error with it).
	mu            sync.Mutex
	remaining     []int
	errs          []error
	aggs          []*aggregator
	results       []CellResult
	emitErr       error // the first panic out of opts.OnCell
	sims, simDays atomic.Int64
}

// prepare is the prologue RunContext and WarmContext share. It works on
// a private copy of the spec: Normalize fills defaults, and the result
// embeds the spec — neither should touch the caller's struct.
func prepare(ctx context.Context, spec *Spec, hooks Hooks, opts *RunOptions) (*run, error) {
	if hooks.GeneratePopulation == nil || hooks.BuildPlacement == nil ||
		hooks.BuildCheckpoint == nil || hooks.Start == nil || hooks.Finish == nil {
		return nil, fmt.Errorf("ensemble: incomplete hooks")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts == nil {
		opts = &RunOptions{}
	}
	spec = spec.clone()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &run{ctx: ctx, spec: spec, hooks: hooks, opts: opts, cells: spec.Cells(),
		builds: newBuildSteps(ctx, opts)}
	// Resolve each model once; replicates share it read-only.
	for _, m := range spec.Models {
		model, err := m.Resolve()
		if err != nil {
			return nil, err
		}
		r.models = append(r.models, model)
	}
	return r, nil
}

// task is one unit of pool work: a replicate of a cell.
type task struct{ cell, replicate int }

// dispatch is the one worker pool. It runs do on spec.Workers goroutines
// (GOMAXPROCS when unset, never more than n, the number of tasks feed
// offers) over the tasks feed sends. Once ctx is canceled, send refuses
// and the workers drop whatever they receive, so no new task starts;
// tasks already running finish before dispatch returns.
func (r *run) dispatch(n int, feed func(send func(task) bool), do func(task)) {
	workers := r.spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tasks := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				if r.ctx.Err() == nil {
					do(t)
				}
			}
		}()
	}
	feed(func(t task) bool {
		select {
		case tasks <- t:
			return true
		case <-r.ctx.Done():
			return false
		}
	})
	close(tasks)
	wg.Wait()
}

// costOrdered feeds every replicate of every cell, cell by cell, longest
// cell first with grid order on ties: the longest-processing-time order
// that keeps one big cell from starting last on a skewed grid. A cell's
// length is persons × simulated days, read from the spec alone so that a
// cold and a warm run of one spec dispatch alike. Every cell of a spec
// simulates the same days (all of them, or on an intervention grid those
// after ForkDay), so persons alone give that order: a preset's
// People / Scale, or People.
func (r *run) costOrdered(send func(task) bool) {
	order, persons := make([]int, len(r.cells)), make([]int64, len(r.cells))
	for i, c := range r.cells {
		order[i], persons[i] = i, int64(c.Population.People)
		if c.Population.State != "" { // Validate holds Scale > 0
			preset, _ := synthpop.PresetByName(c.Population.State)
			persons[i] = preset.People / int64(c.Population.Scale)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return persons[order[a]] > persons[order[b]] })
	for _, ci := range order {
		for rep := 0; rep < r.spec.Replicates; rep++ {
			if !send(task{ci, rep}) {
				return
			}
		}
	}
}

// replicate runs one replicate of cell ci: it fetches the cell's
// placement and, for an intervention cell, the replicate's pre-fork
// checkpoint (built once, shared by every branch), then makes the Start
// and Finish calls. A panic anywhere below becomes the replicate's error,
// so it fails its cell and nothing else.
func (r *run) replicate(ci, rep int) (res *core.Result, err error) {
	cell := r.cells[ci]
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ensemble: cell %s replicate %d: %w", cell.Label(), rep, panicError(p))
		}
	}()
	pl, plKey, err := r.builds.place(r.hooks, r.spec, cell.Population, cell.Placement)
	if err != nil {
		return nil, err
	}
	job := Job{Cell: cell, Replicate: rep, Seed: cell.ReplicateSeed(r.spec.Seed, rep),
		Model: r.models[cell.modelIdx], Spec: r.spec}
	fork := cell.Intervention != nil
	var ck any
	prefix, ckSpan := 0, ""
	if fork {
		ckLabel := fmt.Sprintf("%s r%d", cell.Label(), rep)
		ckSpan = fmt.Sprintf("%s day %d", ckLabel, r.spec.ForkDay)
		var built bool
		ck, built, err = r.builds.get(&r.builds.checkpoint, cell.CheckpointKey(r.spec, plKey, job.Seed), ckLabel, ckSpan, func() (any, error) {
			return r.hooks.BuildCheckpoint(pl, job)
		})
		if err != nil {
			return nil, err
		}
		if built {
			r.simDays.Add(int64(r.spec.ForkDay))
		}
		prefix = r.spec.ForkDay
	}

	start := time.Now()
	eng, err := r.hooks.Start(pl, ck, job)
	if fork {
		r.opts.Trace.Add("checkpoint_restore", ckSpan, start, time.Now())
		if err != nil {
			return nil, fmt.Errorf("ensemble: restore %s r%d: %w", cell.Label(), rep, err)
		}
		start = time.Now()
	}
	r.sims.Add(1)
	if err == nil {
		res, err = r.hooks.Finish(eng, job)
	}
	traceSim(r.opts, cell, rep, res, start)
	if err != nil {
		return nil, fmt.Errorf("ensemble: cell %s replicate %d: %w", cell.Label(), rep, err)
	}
	r.simDays.Add(int64(len(res.Days) - prefix))
	return res, nil
}

// panicError turns a recovered panic into an error carrying its stack.
func panicError(p any) error {
	return fmt.Errorf("panic: %v\n%s", p, debug.Stack())
}

// failed reports whether cell ci already failed.
func (r *run) failed(ci int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs[ci] != nil
}

// fail records cell ci's first error and emits the failed cell.
func (r *run) fail(ci int, err error) {
	r.mu.Lock()
	if r.errs[ci] != nil {
		r.mu.Unlock()
		return
	}
	r.errs[ci] = err
	res := errorCellResult(r.cells[ci], err)
	r.results[ci] = res
	r.mu.Unlock()
	r.emit(res)
}

// add folds one replicate into cell ci and, when it was the cell's last,
// finalizes and emits the cell.
func (r *run) add(ci, rep int, res *core.Result) {
	r.aggs[ci].add(rep, res)
	r.mu.Lock()
	r.remaining[ci]--
	done := r.remaining[ci] == 0 && r.errs[ci] == nil
	r.mu.Unlock()
	if !done {
		return
	}
	aggStart := time.Now()
	out := r.aggs[ci].finalize(r.cells[ci], r.spec.Quantiles, r.spec.Confidence)
	r.opts.Trace.Add("aggregate", r.cells[ci].Label(), aggStart, time.Now())
	r.mu.Lock()
	r.results[ci] = out
	r.mu.Unlock()
	r.emit(out)
}

// emit hands a terminal cell to opts.OnCell on a pool worker, keeping the
// first panic out of it as the sweep's error.
func (r *run) emit(res CellResult) {
	if r.opts.OnCell == nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			r.mu.Lock()
			if r.emitErr == nil {
				r.emitErr = fmt.Errorf("ensemble: OnCell for cell %s: %w", res.Label, panicError(p))
			}
			r.mu.Unlock()
		}
	}()
	r.opts.OnCell(res)
}

// result assembles the sweep's outcome once the pool has drained. A
// cancel that lands as (or after) the last cell finalizes must not
// discard a whole result: when every cell already reached a terminal
// state, the sweep effectively completed and its result is returned.
func (r *run) result() (*SweepResult, error) {
	var failed []int
	complete := true
	for ci := range r.errs {
		switch {
		case r.errs[ci] != nil:
			failed = append(failed, ci)
		case r.remaining[ci] > 0:
			complete = false
		}
	}
	if err := r.ctx.Err(); err != nil && !complete {
		return nil, err
	}
	// The result embeds the (already private) spec for provenance, minus
	// Workers: concurrency affects execution time, never results, and the
	// emitted JSON must be byte-identical across worker counts.
	r.spec.Workers = 0
	out := &SweepResult{
		Spec:             r.spec,
		Cells:            r.results,
		PopulationBuilds: r.builds.population.builds,
		PlacementBuilds:  r.builds.placement.builds,
		CheckpointBuilds: r.builds.checkpoint.builds,
		Simulations:      int(r.sims.Load()),
		SimulatedDays:    r.simDays.Load(),
	}
	if r.emitErr != nil {
		return out, r.emitErr
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("ensemble: %d of %d cells failed; first: %w",
			len(failed), len(r.cells), r.errs[failed[0]])
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
