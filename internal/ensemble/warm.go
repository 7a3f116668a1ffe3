package ensemble

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// WarmResult reports what a warm pass did: how many unique populations
// and placements the grid needs, and — per content key — how many were
// actually built this pass (0 = already cached, in memory or on disk).
type WarmResult struct {
	Populations      int            `json:"populations"`
	Placements       int            `json:"placements"`
	PopulationBuilds map[string]int `json:"population_builds"`
	PlacementBuilds  map[string]int `json:"placement_builds"`
}

// Built sums the placement builds the pass executed.
func (w *WarmResult) Built() int {
	n := 0
	for _, b := range w.PlacementBuilds {
		n += b
	}
	return n
}

// WarmContext builds every unique population and placement of the
// spec's grid WITHOUT running any simulation — the pre-warm pass behind
// `sweep -warm`: populate a disk-tiered cache once (in CI, on an
// operator box), and every later run of the spec, in any process, skips
// partitioning entirely.
//
// Builds run through the same content-keyed caches as a real sweep
// (opts.PopulationCache / opts.PlacementCache when provided), so a warm
// pass racing a live sweep still builds each key exactly once, and a
// pass over an already-warm cache builds nothing. Unique placements are
// warmed concurrently on spec.Workers goroutines (placement builds
// dominate, and they parallelize independently).
//
// Unlike a sweep run, a failing build fails the pass (first error wins,
// in-flight builds finish): a warm pass exists only to populate the
// cache, so there is no partial result worth returning.
func WarmContext(ctx context.Context, spec *Spec, hooks Hooks, opts *RunOptions) (*WarmResult, error) {
	if hooks.GeneratePopulation == nil || hooks.BuildPlacement == nil {
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

	builds := newBuildSteps(ctx, opts)

	// One task per unique placement key, in grid order; the population
	// cache's singleflight dedupes the population builds underneath.
	var tasks []Cell
	seen := map[string]bool{}
	for _, cell := range spec.Cells() {
		if key := cell.Placement.Key(cell.Population.Key(spec.Seed)); !seen[key] {
			seen[key] = true
			tasks = append(tasks, cell)
		}
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		firstEr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		errMu.Unlock()
	}
	ch := make(chan Cell)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range ch {
				if ctx.Err() != nil {
					continue
				}
				if _, _, err := builds.place(hooks, spec, tk.Population, tk.Placement); err != nil {
					setErr(err)
				}
			}
		}()
	}
	for _, tk := range tasks {
		ch <- tk
	}
	close(ch)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstEr != nil {
		return nil, firstEr
	}
	return &WarmResult{
		Populations:      len(builds.population.builds),
		Placements:       len(tasks),
		PopulationBuilds: builds.population.builds,
		PlacementBuilds:  builds.placement.builds,
	}, nil
}
