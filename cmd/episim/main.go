// Command episim runs one epidemic simulation from the command line.
//
// Usage:
//
//	episim -state IA -scale 1000 -days 120 -ranks 64 -strategy GP -splitloc
//	episim -state WY -scale 200 -scenario scenario.txt -out curve.csv
//	episim -state IA -scale 1000 -json - | jq .attack_rate
//
// It prints per-day epidemic and messaging statistics, and optionally the
// modeled Blue Waters time per day. With -json the full Result (epidemic
// curve, final counts, per-day phase statistics) is emitted as
// machine-readable JSON; "-json -" sends it to stdout and moves the
// human-readable report to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	episim "repro"
	"repro/internal/disease"
	"repro/internal/ensemble"
)

func main() {
	var (
		state     = flag.String("state", "IA", "Table I preset (US, CA, NY, MI, NC, IA, AR, WY, or any contiguous state)")
		scale     = flag.Int("scale", 1000, "population scale divisor")
		days      = flag.Int("days", 120, "days to simulate")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		seeds     = flag.Int("infections", 10, "initial index cases")
		ranks     = flag.Int("ranks", 16, "logical PEs (core-modules)")
		strategy  = flag.String("strategy", "GP", "data distribution: RR or GP")
		splitLoc  = flag.Bool("splitloc", false, "apply heavy-location splitting first")
		parallel  = flag.Bool("parallel", false, "run one goroutine per rank (same epidemic as the sequential scheduler)")
		agg       = flag.Int("agg", 64, "message aggregation buffer (0 = off)")
		route2d   = flag.Bool("route2d", false, "TRAM-style 2D topological routing of aggregated messages (needs -agg > 0)")
		mixing    = flag.Float64("mixing", 0, "inter-sublocation mixing factor (0 = rooms are isolated)")
		kernel    = flag.String("kernel", "", "simulation kernel: dense (default), auto (active-set, byte-identical) or event (Gillespie, statistical)")
		kernelThr = flag.Float64("kernel-threshold", 0, "prevalence threshold gating the event kernel (0 = engine default)")
		diseaseF  = flag.String("disease", "", "disease model file (default: built-in ILI model)")
		scenarioF = flag.String("scenario", "", "intervention DSL file")
		model     = flag.Bool("model-time", false, "also print modeled Blue Waters time per day")
		curveOut  = flag.String("out", "", "write day,newinfections CSV to this file")
		jsonOut   = flag.String("json", "", "write the full Result as JSON to this file (\"-\" = stdout)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "episim:", err)
		os.Exit(1)
	}
	// With -json - the machine-readable result owns stdout; the
	// human-readable report moves to stderr.
	report := io.Writer(os.Stdout)
	if *jsonOut == "-" {
		report = os.Stderr
	}

	pop, err := episim.GenerateState(*state, *scale, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(report, "population %s 1:%d — %d persons, %d locations, %d daily visits\n",
		*state, *scale, pop.NumPersons(), pop.NumLocations(), pop.NumVisits())

	var strat episim.Strategy
	switch strings.ToUpper(*strategy) {
	case "RR":
		strat = episim.RR
	case "GP":
		strat = episim.GP
	default:
		fail(fmt.Errorf("unknown strategy %q (want RR or GP)", *strategy))
	}
	pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
		Strategy: strat, SplitLoc: *splitLoc, Ranks: *ranks, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(report, "placement %s over %d ranks", pl.Label, pl.Ranks)
	if pl.SplitStats != nil {
		fmt.Fprintf(report, " (split %d heavy locations into %d)",
			pl.SplitStats.NumSplit, pl.SplitStats.NumFragments)
	}
	if pl.Quality != nil {
		fmt.Fprintf(report, " edge-cut=%d maxload/avg=%.2f/%.2f",
			pl.Quality.EdgeCut, pl.Quality.MaxOverAvg[0], pl.Quality.MaxOverAvg[1])
	}
	fmt.Fprintln(report)

	cfg := episim.SimConfig{
		Days: *days, Seed: *seed, InitialInfections: *seeds,
		Parallel: *parallel, AggBufferSize: *agg,
		Route2D: *route2d, Mixing: *mixing,
		Kernel: *kernel, KernelThreshold: *kernelThr,
	}
	if *diseaseF != "" {
		f, err := os.Open(*diseaseF)
		if err != nil {
			fail(err)
		}
		m, err := disease.Parse(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		cfg.Model = m
	}
	if *scenarioF != "" {
		b, err := os.ReadFile(*scenarioF)
		if err != nil {
			fail(err)
		}
		cfg.Scenario = string(b)
	}

	start := time.Now()
	res, err := episim.Run(pl, cfg)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	peakDay, peak := 0, int64(0)
	for _, d := range res.Days {
		if d.NewInfections > peak {
			peak, peakDay = d.NewInfections, d.Day
		}
	}
	fmt.Fprintf(report, "simulated %d days in %v (%.1f ms/day wall clock)\n",
		len(res.Days), elapsed.Round(time.Millisecond),
		float64(elapsed.Milliseconds())/float64(len(res.Days)))
	fmt.Fprintf(report, "total infections %d (attack rate %.1f%%), peak %d new infections on day %d\n",
		res.TotalInfections, res.AttackRate*100, peak, peakDay)
	var msgs, wire int64
	for _, d := range res.Days {
		msgs += d.PersonPhase.Messages + d.LocationPhase.Messages
		wire += d.PersonPhase.WireMessages + d.LocationPhase.WireMessages
	}
	fmt.Fprintf(report, "messages: %d chare-level, %d wire (aggregation factor %.1f)\n",
		msgs, wire, float64(msgs)/float64(max(wire, 1)))
	if len(res.KernelDays) > 0 {
		parts := make([]string, 0, len(res.KernelDays))
		for _, k := range []string{"dense", "active", "event"} {
			if n := res.KernelDays[k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k, n))
			}
		}
		fmt.Fprintf(report, "kernel days: %s\n", strings.Join(parts, " "))
	}

	if *model {
		cost := episim.ModelDayTime(pl, episim.DefaultPerfOptions())
		fmt.Fprintf(report, "modeled Blue Waters time/day at %d ranks: %.4f s (person %.4f, location %.4f)\n",
			pl.Ranks, cost.Total, cost.Person.Total, cost.Location.Total)
	}
	if *curveOut != "" {
		f, err := os.Create(*curveOut)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(f, "day,newinfections")
		for _, d := range res.Days {
			fmt.Fprintf(f, "%d,%d\n", d.Day, d.NewInfections)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(report, "epidemic curve written to %s\n", *curveOut)
	}
	if *jsonOut == "-" {
		if err := ensemble.EncodeResult(os.Stdout, res); err != nil {
			fail(err)
		}
	} else if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fail(err)
		}
		if err := ensemble.EncodeResult(f, res); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(report, "result JSON written to %s\n", *jsonOut)
	}
}
