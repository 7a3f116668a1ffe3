// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig13 [-scale 1000] [-quick]
//	experiments -run all
//
// Each experiment prints the same rows/series the corresponding paper
// artifact reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		list          = flag.Bool("list", false, "list available experiments")
		run           = flag.String("run", "", "experiment to run (or \"all\")")
		scale         = flag.Int("scale", 1000, "population scale divisor for Table-I presets")
		analysisScale = flag.Int("analysis-scale", 300, "scale divisor for distribution/bound figures")
		seed          = flag.Uint64("seed", 20140519, "generation seed")
		quick         = flag.Bool("quick", false, "reduced state sets and sweeps")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-9s %s\n", e.Name, e.Desc)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run NAME (or -run all)")
		}
		return
	}

	opt := experiments.Options{
		Scale:         *scale,
		AnalysisScale: *analysisScale,
		Seed:          *seed,
		Quick:         *quick,
	}
	var toRun []experiments.Experiment
	if *run == "all" {
		toRun = experiments.All()
	} else {
		e, err := experiments.ByName(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		toRun = []experiments.Experiment{e}
	}
	for _, e := range toRun {
		start := time.Now()
		fmt.Printf("==== %s: %s ====\n", e.Name, e.Desc)
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
