package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

// sweepMain runs a scenario-sweep ensemble from a declarative JSON spec:
// grids over populations, data distributions, disease models and
// intervention scenarios, N seeded replicates per cell, executed on a
// bounded worker pool with each unique (population, placement) pair
// built exactly once.
//
//	episim sweep -example > sweep.json           # print a starter spec
//	episim sweep -spec sweep.json -summary summary.csv -curves curves.csv
//	episim sweep -spec sweep.json -cache-dir .episim-cache -warm   # pre-build placements
//	episim sweep -spec sweep.json -cache-dir .episim-cache         # zero placement builds
//	episim sweep -server http://localhost:8321 -trace sw-000001    # where the wall clock went
//
// -trace fetches a submitted sweep's span timeline from an episimd (or
// episim-gw) instance and prints a per-stage summary: queue wait,
// placement builds, per-replicate simulation, aggregation, result
// persist — with each stage's share of the job's wall clock.
//
// With -cache-dir, every placement built is persisted as a checksummed,
// content-addressed artifact; repeated runs of the same spec (any
// process — including episimd pointed at the same directory) load the
// artifacts instead of re-partitioning and emit byte-identical output.
//
// Exactly one simulation grid is read from -spec; -out/-summary/-curves
// select the emitters ("-" means stdout). Progress goes to stderr.
//
// Ctrl-C cancels the sweep promptly (in-flight replicates finish, no new
// ones start) and exits 130. When some cells fail, sweep still emits the
// partial aggregates (failed cells carry an "error" field), prints a
// per-cell error summary to stderr, and exits 1.
func sweepMain(args []string, stdout, stderr io.Writer) int {
	fs := flags("sweep", stderr)
	var (
		specPath = fs.String("spec", "", "sweep spec JSON file (\"-\" = stdin)")
		example  = fs.Bool("example", false, "print an example spec and exit")
		workers  = fs.Int("workers", 0, "worker pool size (0 = spec value or GOMAXPROCS)")
		outJSON  = fs.String("out", "-", "write full aggregate JSON here (\"-\" = stdout, empty = off)")
		summary  = fs.String("summary", "", "write per-cell summary CSV here")
		curves   = fs.String("curves", "", "write per-day mean/quantile curves CSV here")
		cacheDir = fs.String("cache-dir", "", "persistent placement cache directory: placements built by any earlier run are loaded instead of rebuilt")
		warm     = fs.Bool("warm", false, "only build and persist the spec's placements into -cache-dir (no simulation)")
		cacheMax = fs.Int64("cache-max-bytes", 0, "after the run, prune -cache-dir's placement store to this size, least-recently-used first (0 = no pruning)")
		server   = fs.String("server", "", "episimd or episim-gw base URL, e.g. http://localhost:8321 (used by -trace)")
		traceJob = fs.String("trace", "", "fetch this job id's span timeline from -server, print a per-stage summary, and exit")
		kernel   = fs.String("kernel", "", "override the spec's simulation kernel: dense, auto or event")
		forkDay  = fs.Int("fork-day", 0, "override the spec's fork day: interventions branch from a shared checkpoint at this day (requires an \"interventions\" axis in the spec)")
	)
	return execute(fs, args, stderr, func() error {
		if *example {
			return exampleSpec().Encode(stdout)
		}
		if *traceJob != "" {
			if *server == "" {
				return errors.New("-trace requires -server")
			}
			return printTrace(stdout, *server, *traceJob)
		}
		if *specPath == "" {
			return errors.New("missing -spec (try -example for a template)")
		}
		in := io.Reader(os.Stdin)
		if *specPath != "-" {
			f, err := os.Open(*specPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		spec, err := episim.ParseSweepSpec(in)
		if err != nil {
			return err
		}
		if *workers > 0 {
			spec.Workers = *workers
		}
		if *kernel != "" {
			spec.Kernel = *kernel
		}
		if *forkDay > 0 {
			spec.ForkDay = *forkDay
			// Re-validate: the flag can push the fork past a branch's first
			// trigger day, which must be refused here, not mid-run.
			if err := spec.Validate(); err != nil {
				return err
			}
		}

		var cache *episim.SweepCache
		if *cacheDir != "" {
			if cache, err = episim.NewSweepCacheDir(0, *cacheDir); err != nil {
				return err
			}
			// Bound the cache dir on the way out, so that repeated sweeps
			// against one directory cannot grow it without limit.
			defer func() {
				if *cacheMax <= 0 {
					return
				}
				if files, bytes, err := cache.GCPlacements(*cacheMax); err != nil {
					fmt.Fprintln(stderr, "sweep: cache GC:", err)
				} else if files > 0 {
					fmt.Fprintf(stderr, "sweep: cache GC pruned %d placement artifacts (%d bytes)\n", files, bytes)
				}
			}()
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		start := time.Now()
		if *warm {
			// Pre-warm only: build every unique placement into the cache dir
			// and stop — CI and operators run this once so every later
			// `episim sweep -cache-dir` (or episimd with the same dir)
			// builds nothing.
			if cache == nil {
				return errors.New("-warm requires -cache-dir")
			}
			w, err := episim.WarmSweep(ctx, spec, &episim.SweepOptions{Cache: cache})
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "sweep: warmed %d populations + %d placements in %v (%d built, %d already cached)\n",
				w.Populations, w.Placements, time.Since(start).Round(time.Millisecond),
				w.Built(), w.Placements-w.Built())
			return nil
		}

		cells := spec.Cells()
		fmt.Fprintf(stderr, "sweep: %d cells × %d replicates = %d simulations\n",
			len(cells), spec.Replicates, len(cells)*spec.Replicates)
		res, runErr := episim.RunSweepContext(ctx, spec, &episim.SweepOptions{Cache: cache})
		if res == nil || errors.Is(runErr, context.Canceled) {
			return runErr
		}
		if runErr != nil {
			// Partial result: some cells failed. Summarize them, emit what
			// completed, and flag the run with a non-zero exit.
			fmt.Fprintln(stderr, "sweep: FAILED cells:")
			for _, c := range res.Cells {
				if c.Error != "" {
					fmt.Fprintf(stderr, "sweep:   cell %d (%s): %s\n", c.Index, c.Label, c.Error)
				}
			}
		}
		builds := 0
		for _, n := range res.PlacementBuilds {
			builds += n
		}
		line := fmt.Sprintf("sweep: %d simulations in %v (%d placements built",
			res.Simulations, time.Since(start).Round(time.Millisecond), builds)
		if cache != nil {
			line += fmt.Sprintf(", %d loaded from cache dir", cache.PlacementStats().DiskHits)
		}
		fmt.Fprintln(stderr, line+")")
		if spec.ForkDay > 0 {
			ckBuilds := 0
			for _, n := range res.CheckpointBuilds {
				ckBuilds += n
			}
			fmt.Fprintf(stderr, "sweep: fork day %d: %d checkpoints built, %d simulated days (vs %d from scratch)\n",
				spec.ForkDay, ckBuilds, res.SimulatedDays, int64(res.Simulations)*int64(spec.Days))
		}

		paths := []string{*outJSON, *summary, *curves}
		for i, write := range []func(io.Writer) error{res.WriteJSON, res.WriteSummaryCSV, res.WriteCurvesCSV} {
			if paths[i] == "" {
				continue
			}
			if err := emit(paths[i], stdout, write); err != nil {
				return err
			}
			if paths[i] != "-" {
				fmt.Fprintf(stderr, "sweep: wrote %s\n", paths[i])
			}
		}
		if runErr != nil {
			return errors.New("sweep completed with failed cells (partial aggregates emitted)")
		}
		return nil
	})
}

// printTrace fetches a sweep's span timeline and prints a per-stage
// rollup: thousands of per-replicate sim spans compress into one line
// per stage, with each stage's share of the job's wall clock and the
// overall fraction of wall time the recorded spans cover.
func printTrace(w io.Writer, baseURL, id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr, err := client.New(baseURL).Trace(ctx, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s  job %s  state %s  wall %.3fs\n", tr.TraceID, tr.ID, tr.State, tr.WallSeconds)
	// obs.RollupStages is the one rollup, shared with bench/ -trace, so
	// the two never disagree on what a stage's total means.
	agg := obs.RollupStages(tr.Spans)
	for _, n := range obs.StageOrder(tr.Spans) {
		r := agg[n]
		pct := 0.0
		if tr.WallSeconds > 0 {
			pct = 100 * r.Seconds / tr.WallSeconds
		}
		fmt.Fprintf(w, "  %-18s ×%-6d %10.3fs  %5.1f%% of wall\n", n, r.Count, r.Seconds, pct)
	}
	if tr.SpansDropped > 0 {
		fmt.Fprintf(w, "  (%d spans dropped past the per-job cap; totals above are partial)\n", tr.SpansDropped)
	}
	fmt.Fprintf(w, "  span coverage: %.1f%% of wall clock\n", 100*spanCoverage(tr))
	return nil
}

// spanCoverage is the fraction of the job's wall clock inside the union
// of its recorded span intervals (stages overlap — sim spans run under
// the run span — so intervals merge before summing).
func spanCoverage(tr client.TraceReply) float64 {
	var iv [][2]time.Time
	for _, sp := range tr.Spans {
		if sp.End.After(sp.Start) {
			iv = append(iv, [2]time.Time{sp.Start, sp.End})
		}
	}
	if tr.WallSeconds <= 0 || len(iv) == 0 {
		return 0
	}
	slices.SortFunc(iv, func(a, b [2]time.Time) int { return a[0].Compare(b[0]) })
	var covered time.Duration
	cur := iv[0]
	for _, p := range iv[1:] {
		if p[0].After(cur[1]) {
			covered += cur[1].Sub(cur[0])
			cur = p
		} else if p[1].After(cur[1]) {
			cur[1] = p[1]
		}
	}
	covered += cur[1].Sub(cur[0])
	return covered.Seconds() / tr.WallSeconds
}

// exampleSpec is the template -example prints: a small but complete
// strategy × scenario sweep over a Table I state.
func exampleSpec() *episim.SweepSpec {
	spec := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{State: "WY", Scale: 200}},
		Placements: []episim.SweepPlacement{
			{Strategy: "RR", Ranks: 16},
			{Strategy: "GP", SplitLoc: true, Ranks: 16},
		},
		Scenarios: []episim.SweepScenario{
			{Name: "baseline"},
			{Name: "school-closure",
				Text: "when prevalence(symptomatic) > 0.005 and day >= 3 { close school for 14 }"},
		},
		Replicates:        16,
		Days:              120,
		Seed:              42,
		InitialInfections: 10,
		AggBufferSize:     64,
	}
	spec.Normalize()
	return spec
}
