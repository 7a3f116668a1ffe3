package ensemble

import "context"

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
// `episim sweep -warm`: populate a disk-tiered cache once (in CI, on an
// operator box), and every later run of the spec, in any process, skips
// partitioning entirely.
//
// It shares RunContext's prologue and worker pool. Builds run through the
// same content-keyed caches as a real sweep (opts.PopulationCache /
// opts.PlacementCache when provided), so a warm pass racing a live sweep
// still builds each key exactly once, and a pass over an already-warm
// cache builds nothing. Unique placements are warmed concurrently on
// spec.Workers goroutines (placement builds dominate, and they
// parallelize independently); a canceled ctx starts no new build and
// returns ctx.Err().
//
// Unlike a sweep run, a failing build fails the pass (first error wins,
// in-flight builds finish): a warm pass exists only to populate the
// cache, so there is no partial result worth returning.
func WarmContext(ctx context.Context, spec *Spec, hooks Hooks, opts *RunOptions) (*WarmResult, error) {
	r, err := prepare(ctx, spec, hooks, opts)
	if err != nil {
		return nil, err
	}

	// One task per unique placement key, in grid order; the population
	// cache's singleflight dedupes the population builds underneath.
	var tasks []task
	seen := map[string]bool{}
	for ci, cell := range r.cells {
		if key := cell.Placement.Key(cell.Population.Key(r.spec.Seed)); !seen[key] {
			seen[key] = true
			tasks = append(tasks, task{cell: ci})
		}
	}

	var firstErr error
	r.dispatch(len(tasks), func(send func(task) bool) {
		for _, t := range tasks {
			if !send(t) {
				return
			}
		}
	}, func(t task) {
		cell := r.cells[t.cell]
		if _, _, err := r.builds.place(r.hooks, r.spec, cell.Population, cell.Placement); err != nil {
			r.mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			r.mu.Unlock()
		}
	})

	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &WarmResult{
		Populations:      len(r.builds.population.builds),
		Placements:       len(tasks),
		PopulationBuilds: r.builds.population.builds,
		PlacementBuilds:  r.builds.placement.builds,
	}, nil
}
