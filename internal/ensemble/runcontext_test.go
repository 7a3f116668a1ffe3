package ensemble

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synthpop"
)

// TestOnCellStreamsBeforeRunReturns proves per-cell streaming is real:
// cell 1's simulation BLOCKS until cell 0's aggregate has reached the
// OnCell callback. If cells were only delivered at sweep completion this
// test would deadlock (and fail on the run's internal ordering), not
// merely assert late.
func TestOnCellStreamsBeforeRunReturns(t *testing.T) {
	f := &fakeHooks{}
	h := f.hooks()
	baseFinish := h.Finish
	cell0Streamed := make(chan struct{})
	h.Finish = func(eng any, job Job) (*core.Result, error) {
		if job.Cell.Index == 1 {
			<-cell0Streamed // only OnCell(cell 0) unblocks us
		}
		return baseFinish(eng, job)
	}

	spec := testSpec()
	spec.Populations = spec.Populations[:1]
	spec.Placements = spec.Placements[:1] // 1 pop × 1 placement × 2 scenarios = 2 cells
	spec.Replicates = 2
	spec.Workers = 4

	var mu sync.Mutex
	var streamed []int
	var once sync.Once
	res, err := RunContext(context.Background(), spec, h, &RunOptions{
		OnCell: func(c CellResult) {
			mu.Lock()
			streamed = append(streamed, c.Index)
			mu.Unlock()
			if c.Index == 0 {
				once.Do(func() { close(cell0Streamed) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 2 || streamed[0] != 0 || streamed[1] != 1 {
		t.Fatalf("streamed order = %v, want [0 1]", streamed)
	}
	if len(res.Cells) != 2 || res.Cells[0].Index != 0 || res.Cells[1].Index != 1 {
		t.Fatalf("result cells misindexed: %+v", res.Cells)
	}
}

// TestCancellationStopsDispatchPromptly: after ctx is canceled, no new
// simulations start — at most one in-flight job per worker ever ran, out
// of a 16-job grid.
func TestCancellationStopsDispatchPromptly(t *testing.T) {
	f := &fakeHooks{}
	h := f.hooks()
	baseFinish := h.Finish
	var started atomic.Int64
	firstStarted := make(chan struct{}, 16)
	gate := make(chan struct{})
	h.Finish = func(eng any, job Job) (*core.Result, error) {
		started.Add(1)
		firstStarted <- struct{}{}
		<-gate
		return baseFinish(eng, job)
	}

	spec := testSpec() // 8 cells × 8 replicates = 64 jobs
	spec.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, spec, h, nil)
		done <- err
	}()
	<-firstStarted
	cancel()
	close(gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 2 {
		t.Fatalf("%d simulations started after 2-worker cancel, want <= 2", n)
	}
}

// TestFailedCellDoesNotAbortSweep: one cell's simulations fail; every
// other cell still aggregates, the failed cell carries Error (and
// reaches OnCell), and RunContext returns the partial result alongside
// the error.
func TestFailedCellDoesNotAbortSweep(t *testing.T) {
	f := &fakeHooks{}
	h := f.hooks()
	baseFinish := h.Finish
	h.Finish = func(eng any, job Job) (*core.Result, error) {
		if job.Cell.Scenario.Name == "closure" && job.Cell.Population.Name == "a" {
			return nil, errors.New("boom")
		}
		return baseFinish(eng, job)
	}

	spec := testSpec() // 8 cells; 2 of them are (pop a, closure)
	spec.Workers = 4
	var streamedErrs atomic.Int64
	res, err := RunContext(context.Background(), spec, h, &RunOptions{
		OnCell: func(c CellResult) {
			if c.Error != "" {
				streamedErrs.Add(1)
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want cell failure mentioning boom", err)
	}
	if res == nil {
		t.Fatal("want partial result alongside the error")
	}
	var failed, ok int
	for _, c := range res.Cells {
		if c.Error != "" {
			failed++
			if c.Replicates != 0 || len(c.MeanCurve) != 0 {
				t.Fatalf("failed cell %q carries aggregates: %+v", c.Label, c)
			}
		} else {
			ok++
			if c.Replicates != spec.Replicates || len(c.MeanCurve) != spec.Days {
				t.Fatalf("surviving cell %q incomplete: %+v", c.Label, c)
			}
		}
	}
	if failed != 2 || ok != 6 {
		t.Fatalf("failed=%d ok=%d, want 2/6", failed, ok)
	}
	if streamedErrs.Load() != 2 {
		t.Fatalf("streamed error cells = %d, want 2", streamedErrs.Load())
	}
}

// TestOnCellPanicFailsItsSweep: a panic in the caller's OnCell is
// recovered on the worker that emitted the cell. Every other cell still
// runs and streams, and RunContext returns the whole result beside the
// first panic, stack included.
func TestOnCellPanicFailsItsSweep(t *testing.T) {
	spec := testSpec() // 8 cells
	spec.Workers = 4
	var streamed atomic.Int64
	res, err := RunContext(context.Background(), spec, (&fakeHooks{}).hooks(), &RunOptions{
		OnCell: func(c CellResult) {
			streamed.Add(1)
			if c.Index == 2 {
				panic("sink exploded")
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "panic: sink exploded") ||
		!strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("err = %v, want the OnCell panic with its stack", err)
	}
	if res == nil || len(res.Cells) != 8 {
		t.Fatalf("want the whole result beside the error, got %+v", res)
	}
	for _, c := range res.Cells {
		if c.Error != "" || c.Replicates != spec.Replicates {
			t.Fatalf("cell %q incomplete: %+v", c.Label, c)
		}
	}
	if n := streamed.Load(); n != 8 {
		t.Fatalf("streamed %d cells, want 8", n)
	}
}

// TestCostOrderedDispatch: with one population ten times the size of
// the others, jobs are fed longest-cell-first (LPT) by persons × days,
// and the simulated makespan on a 2-worker pool improves over grid
// order.
func TestCostOrderedDispatch(t *testing.T) {
	f := &fakeHooks{}
	h := f.hooks()
	baseFinish := h.Finish
	var mu sync.Mutex
	var dispatch []int
	h.Finish = func(eng any, job Job) (*core.Result, error) {
		mu.Lock()
		dispatch = append(dispatch, job.Cell.Index)
		mu.Unlock()
		return baseFinish(eng, job)
	}

	// 4 cells (4 pops × 1 placement × 1 scenario), 1 replicate each,
	// skewed by population size: grid-last is 10× everything else.
	spec := testSpec()
	spec.Populations = []PopulationSpec{
		{Name: "p0", People: 100, Locations: 10},
		{State: "WY", Scale: 4995}, // 499,514 / 4,995 = 100 persons
		{Name: "p2", People: 100, Locations: 10},
		{Name: "p3", People: 1000, Locations: 100},
	}
	spec.Placements = spec.Placements[:1]
	spec.Scenarios = spec.Scenarios[:1]
	spec.Replicates = 1
	spec.Workers = 1 // sequential: dispatch order == feed order

	costs := []float64{100, 100, 100, 1000}
	_, err := RunContext(context.Background(), spec, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 1, 2} // expensive first, stable grid order on ties
	if len(dispatch) != 4 {
		t.Fatalf("dispatched %d jobs, want 4", len(dispatch))
	}
	for i, ci := range want {
		if dispatch[i] != ci {
			t.Fatalf("dispatch order = %v, want %v", dispatch, want)
		}
	}

	// Makespan oracle: greedy earliest-free-worker assignment over the
	// dispatch sequence. LPT must beat grid order on this skew.
	gridOrder := []int{0, 1, 2, 3}
	if lpt, grid := makespan(dispatch, costs, 2), makespan(gridOrder, costs, 2); lpt >= grid {
		t.Fatalf("LPT makespan %v not better than grid order %v", lpt, grid)
	}
}

// makespan simulates list scheduling: jobs in `order` are assigned to
// the earliest-free of `workers` identical machines.
func makespan(order []int, costs []float64, workers int) float64 {
	free := make([]float64, workers)
	for _, ci := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += costs[ci]
	}
	max := 0.0
	for _, f := range free {
		if f > max {
			max = f
		}
	}
	return max
}

// TestSharedCacheAcrossRuns: two concurrent sweeps over the same grid
// share process-lifetime caches — each unique population and placement
// is built exactly once in TOTAL, and the per-run accounting sums to
// prove it.
func TestSharedCacheAcrossRuns(t *testing.T) {
	f := &fakeHooks{} // shared: counts builds across both runs
	popCache := NewCache(0, nil)
	plCache := NewCache(0, nil)
	opts := func() *RunOptions {
		return &RunOptions{PopulationCache: popCache, PlacementCache: plCache}
	}

	var wg sync.WaitGroup
	results := make([]*SweepResult, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := testSpec()
			spec.Workers = 4
			results[i], errs[i] = RunContext(context.Background(), spec, f.hooks(), opts())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := f.popBuilds.Load(); got != 2 {
		t.Fatalf("total population builds = %d, want 2 (unique pops, shared across runs)", got)
	}
	if got := f.plBuilds.Load(); got != 4 {
		t.Fatalf("total placement builds = %d, want 4 (unique placements, shared across runs)", got)
	}
	// Per-run accounting sums to one build per key across BOTH runs.
	sums := map[string]int{}
	for _, res := range results {
		if len(res.PlacementBuilds) != 4 {
			t.Fatalf("run requested %d placement keys, want 4", len(res.PlacementBuilds))
		}
		for k, n := range res.PlacementBuilds {
			sums[k] += n
		}
	}
	for k, n := range sums {
		if n != 1 {
			t.Fatalf("placement %q built %d times across runs, want 1", k, n)
		}
	}
	st := plCache.Stats()
	if st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("placement cache stats = %+v, want 4 misses/4 entries", st)
	}
	if st.Hits == 0 {
		t.Fatal("placement cache saw no hits despite 128 shared jobs")
	}
}

// TestPanicFailsItsCellAlone: a placement build that panics and a
// replicate that panics each fail only the cells they touch, with the
// panic and its stack in the cell's Error. A second sweep that was
// waiting on the panicking build returns with its error instead of
// hanging, and the key is left out of the shared cache for a retry.
func TestPanicFailsItsCellAlone(t *testing.T) {
	h := (&fakeHooks{}).hooks()
	building, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	baseBuild, baseFinish := h.BuildPlacement, h.Finish
	h.BuildPlacement = func(pop *synthpop.Population, ps PlacementSpec, seed uint64) (any, error) {
		if ps.Strategy == "RR" {
			once.Do(func() { close(building) })
			<-release
			panic("partitioner exploded")
		}
		return baseBuild(pop, ps, seed)
	}
	h.Finish = func(eng any, job Job) (*core.Result, error) {
		if job.Cell.Scenario.Name == "closure" {
			var counts map[string]int
			counts[job.Cell.Label()]++ // assignment to a nil map panics
		}
		return baseFinish(eng, job)
	}

	// Cells in grid order: RR baseline, RR closure, GP baseline, GP closure.
	spec := testSpec()
	spec.Populations = spec.Populations[:1]
	spec.Workers = 1
	plCache := NewCache(0, nil)
	type outcome struct {
		res *SweepResult
		err error
	}
	sweep := func() chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := RunContext(context.Background(), spec, h, &RunOptions{PlacementCache: plCache})
			ch <- outcome{res, err}
		}()
		return ch
	}
	first := sweep()
	<-building
	second := sweep()
	for plCache.Stats().Hits == 0 { // the second sweep now waits on the build
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i, ch := range []chan outcome{first, second} {
		var o outcome
		select {
		case o = <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("sweep %d never returned", i)
		}
		if o.err == nil || !strings.Contains(o.err.Error(), "panic: ") || o.res == nil {
			t.Fatalf("sweep %d: err = %v, result %v; want a partial result and a panic error", i, o.err, o.res != nil)
		}
		for ci, want := range []string{"panic: partitioner exploded", "panic: partitioner exploded", "", "assignment to entry in nil map"} {
			c := o.res.Cells[ci]
			if want == "" {
				if c.Error != "" || c.Replicates != spec.Replicates {
					t.Errorf("sweep %d cell %s: error %q, %d replicates; want all %d", i, c.Label, c.Error, c.Replicates, spec.Replicates)
				}
			} else if !strings.Contains(c.Error, want) || !strings.Contains(c.Error, "goroutine ") {
				t.Errorf("sweep %d cell %s: error %q; want %q and a stack", i, c.Label, c.Error, want)
			}
		}
	}
	if st := plCache.Stats(); st.Entries != 1 {
		t.Fatalf("shared placement cache holds %d entries, want only the GP placement", st.Entries)
	}
}
