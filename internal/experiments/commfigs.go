package experiments

import (
	"fmt"
	"io"

	episim "repro"
	"repro/internal/charm"
)

// commSweep is the rank sweep used by the communication figures.
func commSweep(quick bool) []int {
	if quick {
		return []int{256, 1024}
	}
	return []int{64, 256, 1024, 4096}
}

// runFig9to11 reconstructs Figures 9–11 (the evaluation text for these is
// truncated in the available source): the individual effect
// of each Section IV optimization — SMP mode with a dedicated
// communication thread, completion detection vs quiescence detection, and
// message aggregation — measured as modeled time per day with exactly one
// optimization disabled at a time.
func runFig9to11(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	pop, err := statePop("IA", opt.Scale, opt.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figures 9-11 — communication optimization ablation (IA 1:%d, RR distribution)\n", opt.Scale)
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s %12s\n",
		"ranks", "all-on(s)", "-aggregation", "-SMP", "-CD(use QD)", "none(no-opt)")
	for _, k := range commSweep(opt.Quick) {
		pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
			Strategy: episim.RR, Ranks: k, Seed: opt.Seed})
		if err != nil {
			return err
		}
		base := episim.DefaultPerfOptions()

		noAgg := base
		noAgg.Aggregation = 0

		noSMP := base
		noSMP.Machine.SMPEnabled = false

		qd := base
		qd.Sync = charm.QuiescenceDetection

		noOpt := episim.NoOptPerfOptions()

		t := func(o episim.PerfOptions) float64 { return episim.ModelDayTime(pl, o).Total }
		fmt.Fprintf(w, "%-8d %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			k, t(base), t(noAgg), t(noSMP), t(qd), t(noOpt))
	}
	fmt.Fprintf(w, "each column re-enables all optimizations except the named one\n")
	return nil
}

// runFig12 regenerates Figure 12's headline comparison: "RR no-opt" (the
// first Charm++ implementation: no aggregation, no SMP comm thread,
// quiescence detection, unoptimized messaging software) versus the
// optimized "RR". The paper reports the combined optimizations provide an
// additional ~40% reduction in execution time.
func runFig12(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	pop, err := statePop("IA", opt.Scale, opt.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 12 — RR no-opt vs RR (IA 1:%d)\n", opt.Scale)
	fmt.Fprintf(w, "%-8s %14s %14s %12s\n", "ranks", "RR no-opt(s)", "RR(s)", "reduction")
	var worst, best float64
	for _, k := range commSweep(opt.Quick) {
		pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
			Strategy: episim.RR, Ranks: k, Seed: opt.Seed})
		if err != nil {
			return err
		}
		tNoOpt := episim.ModelDayTime(pl, episim.NoOptPerfOptions()).Total
		tOpt := episim.ModelDayTime(pl, episim.DefaultPerfOptions()).Total
		red := 1 - tOpt/tNoOpt
		if red > best {
			best = red
		}
		if worst == 0 || red < worst {
			worst = red
		}
		fmt.Fprintf(w, "%-8d %14.4f %14.4f %11.1f%%\n", k, tNoOpt, tOpt, red*100)
	}
	fmt.Fprintf(w, "reduction range %.0f%%..%.0f%% across the sweep (paper: ~40%% combined)\n",
		worst*100, best*100)
	return nil
}
