// Command episim is the one command line for local work: it generates and
// partitions populations, runs one simulation or a sweep of them, and
// regenerates the paper's tables and figures.
//
// Usage:
//
//	episim run -state IA -scale 1000 -days 120 -ranks 64 -strategy GP -splitloc
//	episim run -state IA -scale 1000 -json - | jq .attack_rate
//	episim sweep -spec sweep.json -out results.json -summary summary.csv
//	episim popgen -state CA -scale 1000 -out ca.pop
//	episim partition -in ca.pop -ranks 1024 -compare
//	episim figures -run all -quick
//
// Subcommands:
//
//	run        simulate one epidemic and report it
//	sweep      run a scenario-sweep ensemble from a JSON spec
//	popgen     generate, inspect and write a synthetic population
//	partition  report the partition quality of each data distribution
//	figures    regenerate the paper's tables and figures
//
// run, popgen and partition share one population flag set (-state -scale
// -people -locations -seed -in); run and partition share one placement
// flag set (-ranks -strategy -splitloc). A population file is a sealed
// KindPopulation artifact (internal/artifact): popgen -out writes one, and
// -in checks its envelope and checksum, then decodes and validates it.
//
// A subcommand exits 0 on success, 1 after an "episim:" error on stderr,
// 2 on a usage error and 130 when an interrupt cancels a sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	episim "repro"
	"repro/internal/artifact"
	"repro/internal/disease"
	"repro/internal/ensemble"
	"repro/internal/experiments"
	"repro/internal/splitloc"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// commands are the subcommands, each a function of its arguments and
// output streams returning the exit status, so that a test can drive it
// in-process.
var commands = []struct {
	name, summary string
	main          func(args []string, stdout, stderr io.Writer) int
}{
	{"run", "simulate one epidemic and report it", runMain},
	{"sweep", "run a scenario-sweep ensemble from a JSON spec", sweepMain},
	{"popgen", "generate, inspect and write a synthetic population", popgenMain},
	{"partition", "report the partition quality of each data distribution", partitionMain},
	{"figures", "regenerate the paper's tables and figures", figuresMain},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand args[0] names with the rest of args.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.main(args[1:], stdout, stderr)
			}
		}
	}
	fmt.Fprintln(stderr, "Usage: episim <subcommand> [flags]  (episim <subcommand> -h lists its flags)")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.summary)
	}
	return 2
}

// flags is the flag set of subcommand name: it reports errors and usage
// on stderr and leaves the exit to execute.
func flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("episim "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// execute is every subcommand's one exit path: it parses args into fs,
// then runs body. A flag error exits 2 after fs's usage and -h exits 0;
// an error from body exits 130 when it is a cancellation and 1 otherwise,
// after an "episim:" line on stderr.
func execute(fs *flag.FlagSet, args []string, stderr io.Writer, body func() error) int {
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	err := body()
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, "episim: canceled")
		return 130
	}
	fmt.Fprintln(stderr, "episim:", err)
	return 1
}

// populationKey is the content key every population file is sealed under.
const populationKey = "episim-population"

// populationFlags defines the one population flag set of run, popgen and
// partition on fs, with -state defaulting to state. It returns a loader
// that reads the population from -in, or generates it from -people and
// -locations or else from -state, validates it and names its source; and
// it returns -seed.
func populationFlags(fs *flag.FlagSet, state string) (load func() (*synthpop.Population, string, error), seed *uint64) {
	preset := fs.String("state", state, "Table I preset (US, CA, NY, MI, NC, IA, AR, WY, or any contiguous state)")
	scale := fs.Int("scale", 1000, "population scale divisor for -state")
	people := fs.Int("people", 0, "custom population size (with -locations; overrides -state)")
	locations := fs.Int("locations", 0, "custom location count (with -people)")
	seed = fs.Uint64("seed", 1, "seed of the generation and of what follows it")
	in := fs.String("in", "", "read the population from this file (written by popgen -out) instead of generating it")
	return func() (pop *synthpop.Population, from string, err error) {
		switch {
		case *in != "":
			var b []byte
			if b, err = os.ReadFile(*in); err != nil {
				return nil, "", err
			}
			if b, err = artifact.Open(b, artifact.KindPopulation, populationKey); err == nil {
				pop, err = artifact.DecodePopulation(b)
			}
			if err != nil {
				return nil, "", fmt.Errorf("population file %s: %w", *in, err)
			}
			from = *in
		case *people > 0 && *locations > 0:
			pop = synthpop.Generate(synthpop.DefaultConfig("custom", *people, *locations, *seed))
			from = "custom"
		case *preset != "":
			pop, err = synthpop.GenerateState(*preset, *scale, *seed)
			from = fmt.Sprintf("%s 1:%d", *preset, *scale)
		default:
			err = errors.New("need -state, -in, or -people/-locations")
		}
		if err == nil {
			err = pop.Validate()
		}
		return pop, from, err
	}, seed
}

// placementFlags defines the one placement flag set of run and partition
// on fs, with -ranks defaulting to ranks, and returns their parser: the
// command line's one parser of the strategy.
func placementFlags(fs *flag.FlagSet, ranks int) func(seed uint64) (episim.PlacementOptions, error) {
	n := fs.Int("ranks", ranks, "logical PEs (core-modules) to distribute over")
	strategy := fs.String("strategy", "GP", "data distribution: RR or GP")
	split := fs.Bool("splitloc", false, "apply heavy-location splitting first")
	return func(seed uint64) (episim.PlacementOptions, error) {
		o := episim.PlacementOptions{SplitLoc: *split, Ranks: *n, Seed: seed}
		switch strings.ToUpper(*strategy) {
		case "RR":
			o.Strategy = episim.RR
		case "GP":
			o.Strategy = episim.GP
		default:
			return o, fmt.Errorf("unknown strategy %q (want RR or GP)", *strategy)
		}
		return o, nil
	}
}

// emit writes with write to stdout when path is "-" and to the file at
// path otherwise.
func emit(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMain runs one epidemic simulation. It prints per-day epidemic and
// messaging statistics, and optionally the modeled Blue Waters time per
// day. With -json the full Result (epidemic curve, final counts, per-day
// phase statistics) is emitted as machine-readable JSON; "-json -" sends
// it to stdout and moves the human-readable report to stderr.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flags("run", stderr)
	load, seed := populationFlags(fs, "IA")
	place := placementFlags(fs, 16)
	var (
		days      = fs.Int("days", 120, "days to simulate")
		seeds     = fs.Int("infections", 10, "initial index cases")
		parallel  = fs.Bool("parallel", false, "run one goroutine per rank (same epidemic as the sequential scheduler)")
		agg       = fs.Int("agg", 64, "message aggregation buffer (0 = off)")
		route2d   = fs.Bool("route2d", false, "TRAM-style 2D topological routing of aggregated messages (needs -agg > 0)")
		mixing    = fs.Float64("mixing", 0, "inter-sublocation mixing factor (0 = rooms are isolated)")
		kernel    = fs.String("kernel", "", "simulation kernel: dense (default), auto (active-set, byte-identical) or event (Gillespie, statistical)")
		kernelThr = fs.Float64("kernel-threshold", 0, "prevalence threshold gating the event kernel (0 = engine default)")
		diseaseF  = fs.String("disease", "", "disease model file (default: built-in ILI model)")
		scenarioF = fs.String("scenario", "", "intervention DSL file")
		model     = fs.Bool("model-time", false, "also print modeled Blue Waters time per day")
		curveOut  = fs.String("out", "", "write day,newinfections CSV to this file")
		jsonOut   = fs.String("json", "", "write the full Result as JSON to this file (\"-\" = stdout)")
	)
	return execute(fs, args, stderr, func() error {
		report := stdout
		if *jsonOut == "-" {
			report = stderr
		}
		opts, err := place(*seed)
		if err != nil {
			return err
		}
		pop, from, err := load()
		if err != nil {
			return err
		}
		fmt.Fprintf(report, "population %s — %d persons, %d locations, %d daily visits\n",
			from, pop.NumPersons(), pop.NumLocations(), pop.NumVisits())
		pl, err := episim.BuildPlacement(pop, opts)
		if err != nil {
			return err
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
			b, err := os.ReadFile(*diseaseF)
			if err == nil {
				cfg.Model, err = disease.ParseString(string(b))
			}
			if err != nil {
				return err
			}
		}
		if *scenarioF != "" {
			b, err := os.ReadFile(*scenarioF)
			if err != nil {
				return err
			}
			cfg.Scenario = string(b)
		}

		start := time.Now()
		res, err := episim.Run(pl, cfg)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		peakDay, peak := 0, int64(0)
		var msgs, wire int64
		for _, d := range res.Days {
			if d.NewInfections > peak {
				peak, peakDay = d.NewInfections, d.Day
			}
			msgs += d.PersonPhase.Messages + d.LocationPhase.Messages
			wire += d.PersonPhase.WireMessages + d.LocationPhase.WireMessages
		}
		fmt.Fprintf(report, "simulated %d days in %v (%.1f ms/day wall clock)\n",
			len(res.Days), elapsed.Round(time.Millisecond),
			float64(elapsed.Milliseconds())/float64(len(res.Days)))
		fmt.Fprintf(report, "total infections %d (attack rate %.1f%%), peak %d new infections on day %d\n",
			res.TotalInfections, res.AttackRate*100, peak, peakDay)
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
			var b strings.Builder
			b.WriteString("day,newinfections\n")
			for _, d := range res.Days {
				fmt.Fprintf(&b, "%d,%d\n", d.Day, d.NewInfections)
			}
			if err := os.WriteFile(*curveOut, []byte(b.String()), 0o666); err != nil {
				return err
			}
			fmt.Fprintf(report, "epidemic curve written to %s\n", *curveOut)
		}
		if *jsonOut == "" {
			return nil
		}
		if err := emit(*jsonOut, stdout, func(w io.Writer) error { return ensemble.EncodeResult(w, res) }); err != nil {
			return err
		}
		if *jsonOut != "-" {
			fmt.Fprintf(report, "result JSON written to %s\n", *jsonOut)
		}
		return nil
	})
}

// popgenMain generates or reads a population, prints its distribution
// statistics and optionally writes it to a file.
func popgenMain(args []string, stdout, stderr io.Writer) int {
	fs := flags("popgen", stderr)
	load, _ := populationFlags(fs, "")
	var (
		out       = fs.String("out", "", "write the population to this file")
		showStats = fs.Bool("stats", true, "print distribution statistics")
		split     = fs.Bool("splitloc", false, "also report the splitLoc transform")
	)
	return execute(fs, args, stderr, func() error {
		pop, _, err := load()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "population %q: %d persons, %d locations, %d daily visits\n",
			pop.Name, pop.NumPersons(), pop.NumLocations(), pop.NumVisits())
		if *showStats {
			perPerson := make([]int, pop.NumPersons())
			for p := range perPerson {
				perPerson[p] = len(pop.PersonVisits(int32(p)))
			}
			ps := stats.SummarizeInts(perPerson)
			fmt.Fprintf(stdout, "visits/person: mean %.2f sigma %.2f max %.0f (paper: 5.5, sigma 2.6)\n",
				ps.Mean, ps.Std, ps.Max)
			counts := pop.VisitCountsPerLocation()
			loads := make([]float64, len(counts))
			for i, c := range counts {
				loads[i] = float64(c)
			}
			ls := stats.Summarize(loads)
			fmt.Fprintf(stdout, "visits/location: mean %.2f max %.0f (%.0fx mean), tail alpha %.2f\n",
				ls.Mean, ls.Max, ls.Max/ls.Mean, stats.PowerLawAlpha(loads, ls.Mean*4))
		}
		if *split {
			_, st, err := splitloc.SplitPopulation(pop, splitloc.Options{})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "splitLoc: threshold %.1f, split %d locations into %d (growth %.2f%%), d_max %d -> %d\n",
				st.Threshold, st.NumSplit, st.NumFragments, st.GrowthFrac*100,
				st.MaxDegreePre, st.MaxDegreePost)
		}
		if *out != "" {
			sealed := artifact.Seal(artifact.KindPopulation, populationKey, artifact.EncodePopulation(pop))
			if err := os.WriteFile(*out, sealed, 0o666); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "written to %s\n", *out)
		}
		return nil
	})
}

// partitionMain distributes a population graph over ranks and reports the
// quality metrics of Section III-B: per-phase load balance, edge cut,
// maximum per-partition cut, and the S_ub speedup bound.
func partitionMain(args []string, stdout, stderr io.Writer) int {
	fs := flags("partition", stderr)
	load, seed := populationFlags(fs, "IA")
	place := placementFlags(fs, 64)
	compare := fs.Bool("compare", false, "report all four strategies")
	return execute(fs, args, stderr, func() error {
		o, err := place(*seed)
		if err != nil {
			return err
		}
		pop, _, err := load()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "population %q: %d persons, %d locations, %d visits; %d ranks\n",
			pop.Name, pop.NumPersons(), pop.NumLocations(), pop.NumVisits(), o.Ranks)
		opts := []episim.PlacementOptions{o}
		if *compare {
			opts = []episim.PlacementOptions{
				{Strategy: episim.RR},
				{Strategy: episim.GP},
				{Strategy: episim.RR, SplitLoc: true},
				{Strategy: episim.GP, SplitLoc: true},
			}
		}
		fmt.Fprintf(stdout, "%-14s %12s %12s %10s %10s %12s %12s\n",
			"strategy", "edge cut", "max cut", "bal(pers)", "bal(loc)", "Sub(pers)", "Sub(loc)")
		for _, c := range opts {
			c.Ranks, c.Seed, c.EvaluateQuality = o.Ranks, o.Seed, true
			pl, err := episim.BuildPlacement(pop, c)
			if err != nil {
				return err
			}
			q := pl.Quality
			fmt.Fprintf(stdout, "%-14s %12d %12d %10.2f %10.2f %12.0f %12.0f\n",
				pl.Label, q.EdgeCut, q.MaxPartCut, q.MaxOverAvg[0], q.MaxOverAvg[1],
				q.SpeedupUpperBound(0), q.SpeedupUpperBound(1))
		}
		return nil
	})
}

// figuresMain regenerates the paper's tables and figures: each experiment
// prints the rows or series of the paper artifact it is named after.
func figuresMain(args []string, stdout, stderr io.Writer) int {
	fs := flags("figures", stderr)
	opt := experiments.Defaults()
	list := fs.Bool("list", false, "list available experiments")
	run := fs.String("run", "", "experiment to run (or \"all\")")
	fs.IntVar(&opt.Scale, "scale", opt.Scale, "population scale divisor for Table-I presets")
	fs.IntVar(&opt.AnalysisScale, "analysis-scale", opt.AnalysisScale, "scale divisor for distribution/bound figures")
	fs.Uint64Var(&opt.Seed, "seed", opt.Seed, "generation seed")
	fs.BoolVar(&opt.Quick, "quick", opt.Quick, "reduced state sets and sweeps")
	return execute(fs, args, stderr, func() error {
		if *list || *run == "" {
			fmt.Fprintln(stdout, "available experiments:")
			for _, e := range experiments.All() {
				fmt.Fprintf(stdout, "  %-9s %s\n", e.Name, e.Desc)
			}
			if *run == "" && !*list {
				fmt.Fprintln(stdout, "\nuse -run NAME (or -run all)")
			}
			return nil
		}
		if opt.Scale < 1 || opt.AnalysisScale < 1 {
			return errors.New("-scale and -analysis-scale must be at least 1")
		}
		toRun := experiments.All()
		if *run != "all" {
			e, err := experiments.ByName(*run)
			if err != nil {
				return err
			}
			toRun = []experiments.Experiment{e}
		}
		for _, e := range toRun {
			start := time.Now()
			fmt.Fprintf(stdout, "==== %s: %s ====\n", e.Name, e.Desc)
			if err := e.Run(stdout, opt); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
}
