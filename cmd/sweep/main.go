// Command sweep runs a scenario-sweep ensemble from a declarative JSON
// spec: grids over populations, data distributions, disease models and
// intervention scenarios, N seeded replicates per cell, executed on a
// bounded worker pool with each unique (population, placement) pair
// built exactly once.
//
// Usage:
//
//	sweep -example > sweep.json           # print a starter spec
//	sweep -spec sweep.json -out results.json
//	sweep -spec sweep.json -summary summary.csv -curves curves.csv
//	sweep -spec sweep.json -workers 16 -out -
//	sweep -spec sweep.json -cache-dir .episim-cache -warm   # pre-build placements
//	sweep -spec sweep.json -cache-dir .episim-cache         # zero placement builds
//	sweep -server http://localhost:8321 -trace sw-000001    # where the wall clock went
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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

func main() {
	var (
		specPath = flag.String("spec", "", "sweep spec JSON file (\"-\" = stdin)")
		example  = flag.Bool("example", false, "print an example spec and exit")
		workers  = flag.Int("workers", 0, "worker pool size (0 = spec value or GOMAXPROCS)")
		outJSON  = flag.String("out", "-", "write full aggregate JSON here (\"-\" = stdout, empty = off)")
		summary  = flag.String("summary", "", "write per-cell summary CSV here")
		curves   = flag.String("curves", "", "write per-day mean/quantile curves CSV here")
		cacheDir = flag.String("cache-dir", "", "persistent placement cache directory: placements built by any earlier run are loaded instead of rebuilt")
		warm     = flag.Bool("warm", false, "only build and persist the spec's placements into -cache-dir (no simulation)")
		cacheMax = flag.Int64("cache-max-bytes", 0, "after the run, prune -cache-dir's placement store to this size, least-recently-used first (0 = no pruning)")
		server   = flag.String("server", "", "episimd or episim-gw base URL, e.g. http://localhost:8321 (used by -trace)")
		traceJob = flag.String("trace", "", "fetch this job id's span timeline from -server, print a per-stage summary, and exit")
		kernel   = flag.String("kernel", "", "override the spec's simulation kernel: dense, auto or event")
		forkDay  = flag.Int("fork-day", 0, "override the spec's fork day: interventions branch from a shared checkpoint at this day (requires an \"interventions\" axis in the spec)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	if *example {
		if err := exampleSpec().Encode(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	if *traceJob != "" {
		if *server == "" {
			fail(fmt.Errorf("-trace requires -server"))
		}
		if err := printTrace(*server, *traceJob); err != nil {
			fail(err)
		}
		return
	}
	if *specPath == "" {
		fail(fmt.Errorf("missing -spec (try -example for a template)"))
	}

	var in io.Reader = os.Stdin
	if *specPath != "-" {
		f, err := os.Open(*specPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	spec, err := episim.ParseSweepSpec(in)
	if err != nil {
		fail(err)
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
			fail(err)
		}
	}

	var cache *episim.SweepCache
	if *cacheDir != "" {
		cache, err = episim.NewSweepCacheDir(0, *cacheDir)
		if err != nil {
			fail(err)
		}
	}
	// gcStore bounds the cache dir on the way out (both the warm-only
	// and full-run paths), so repeated sweeps against one directory
	// cannot grow it without limit.
	gcStore := func() {
		if cache == nil || *cacheMax <= 0 {
			return
		}
		files, bytes, err := cache.GCPlacements(*cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep: cache GC:", err)
			return
		}
		if files > 0 {
			fmt.Fprintf(os.Stderr, "sweep: cache GC pruned %d placement artifacts (%d bytes)\n", files, bytes)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *warm {
		// Pre-warm only: build every unique placement into the cache dir
		// and stop — CI and operators run this once so every later
		// `sweep -cache-dir` (or episimd with the same dir) builds nothing.
		if cache == nil {
			fail(fmt.Errorf("-warm requires -cache-dir"))
		}
		start := time.Now()
		w, err := episim.WarmSweep(ctx, spec, &episim.SweepOptions{Cache: cache})
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweep: canceled")
			os.Exit(130)
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: warmed %d populations + %d placements in %v (%d built, %d already cached)\n",
			w.Populations, w.Placements, time.Since(start).Round(time.Millisecond),
			w.Built(), w.Placements-w.Built())
		gcStore()
		return
	}

	cells := spec.Cells()
	fmt.Fprintf(os.Stderr, "sweep: %d cells × %d replicates = %d simulations\n",
		len(cells), spec.Replicates, len(cells)*spec.Replicates)

	start := time.Now()
	res, err := episim.RunSweepContext(ctx, spec, &episim.SweepOptions{Cache: cache})
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sweep: canceled")
		os.Exit(130)
	}
	exitCode := 0
	if err != nil {
		if res == nil {
			fail(err)
		}
		// Partial result: some cells failed. Summarize them, emit what
		// completed, and flag the run with a non-zero exit.
		exitCode = 1
		fmt.Fprintln(os.Stderr, "sweep: FAILED cells:")
		for _, c := range res.Cells {
			if c.Error != "" {
				fmt.Fprintf(os.Stderr, "sweep:   cell %d (%s): %s\n", c.Index, c.Label, c.Error)
			}
		}
	}
	elapsed := time.Since(start)
	builds := 0
	for _, n := range res.PlacementBuilds {
		builds += n
	}
	line := fmt.Sprintf("sweep: %d simulations in %v (%d placements built",
		res.Simulations, elapsed.Round(time.Millisecond), builds)
	if cache != nil {
		line += fmt.Sprintf(", %d loaded from cache dir", cache.PlacementStats().DiskHits)
	}
	fmt.Fprintln(os.Stderr, line+")")
	if spec.ForkDay > 0 {
		ckBuilds := 0
		for _, n := range res.CheckpointBuilds {
			ckBuilds += n
		}
		fmt.Fprintf(os.Stderr, "sweep: fork day %d: %d checkpoints built, %d simulated days (vs %d from scratch)\n",
			spec.ForkDay, ckBuilds, res.SimulatedDays, int64(res.Simulations)*int64(spec.Days))
	}

	emit := func(path string, write func(io.Writer) error) {
		if path == "" {
			return
		}
		w := io.Writer(os.Stdout)
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				fail(err)
			}
			defer func() {
				if err := f.Close(); err != nil {
					fail(err)
				}
			}()
			w = f
		}
		if err := write(w); err != nil {
			fail(err)
		}
		if path != "-" {
			fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", path)
		}
	}
	emit(*outJSON, res.WriteJSON)
	emit(*summary, res.WriteSummaryCSV)
	emit(*curves, res.WriteCurvesCSV)
	gcStore()
	if exitCode != 0 {
		fmt.Fprintln(os.Stderr, "sweep: completed with failed cells (partial aggregates emitted)")
		os.Exit(exitCode)
	}
}

// printTrace fetches a sweep's span timeline and prints a per-stage
// rollup: thousands of per-replicate sim spans compress into one line
// per stage, with each stage's share of the job's wall clock and the
// overall fraction of wall time the recorded spans cover.
func printTrace(baseURL, id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr, err := client.New(baseURL).Trace(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s  job %s  state %s  wall %.3fs\n", tr.TraceID, tr.ID, tr.State, tr.WallSeconds)
	// obs.RollupStages is the one rollup, shared with bench/ -trace, so
	// the two never disagree on what a stage's total means.
	agg := obs.RollupStages(tr.Spans)
	for _, n := range obs.StageOrder(tr.Spans) {
		r := agg[n]
		pct := 0.0
		if tr.WallSeconds > 0 {
			pct = 100 * r.Seconds / tr.WallSeconds
		}
		fmt.Printf("  %-18s ×%-6d %10.3fs  %5.1f%% of wall\n", n, r.Count, r.Seconds, pct)
	}
	if tr.SpansDropped > 0 {
		fmt.Printf("  (%d spans dropped past the per-job cap; totals above are partial)\n", tr.SpansDropped)
	}
	fmt.Printf("  span coverage: %.1f%% of wall clock\n", 100*spanCoverage(tr))
	return nil
}

// spanCoverage is the fraction of the job's wall clock inside the union
// of its recorded span intervals (stages overlap — sim spans run under
// the run span — so intervals merge before summing).
func spanCoverage(tr client.TraceReply) float64 {
	if tr.WallSeconds <= 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		if sp.End.After(sp.Start) {
			iv = append(iv, [2]time.Time{sp.Start, sp.End})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var covered time.Duration
	curS, curE := iv[0][0], iv[0][1]
	for _, p := range iv[1:] {
		if p[0].After(curE) {
			covered += curE.Sub(curS)
			curS, curE = p[0], p[1]
			continue
		}
		if p[1].After(curE) {
			curE = p[1]
		}
	}
	covered += curE.Sub(curS)
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
