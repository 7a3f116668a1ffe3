package experiments

import (
	"fmt"
	"io"

	episim "repro"
	"repro/internal/charm"
	"repro/internal/stats"
)

// ablation prices IA's RR placement at each rank of the communication
// sweep with every optimization (column 0), with exactly one of
// aggregation, SMP mode and completion detection disabled (columns 1-3),
// and with none (column 4, the first Charm++ implementation's "no-opt").
func ablation(opt Options) ([][]float64, error) {
	pop, err := statePop("IA", opt.Scale, opt.Seed)
	if err != nil {
		return nil, err
	}
	base := episim.DefaultPerfOptions()
	noAgg, noSMP, qd := base, base, base
	noAgg.Aggregation = 0
	noSMP.Machine.SMPEnabled = false
	qd.Sync = charm.QuiescenceDetection
	var rows [][]float64
	for _, k := range opt.sizes().commRanks {
		ts, err := price(pop, episim.PlacementOptions{Strategy: episim.RR, Ranks: k, Seed: opt.Seed},
			base, noAgg, noSMP, qd, episim.NoOptPerfOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, ts)
	}
	return rows, nil
}

// runFig9to11 reconstructs Figures 9–11 (the evaluation text for these is
// truncated in the available source): the individual effect
// of each Section IV optimization — SMP mode with a dedicated
// communication thread, completion detection vs quiescence detection, and
// message aggregation — measured as modeled time per day with exactly one
// optimization disabled at a time.
func runFig9to11(w io.Writer, opt Options) error {
	rows, err := ablation(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figures 9-11 — communication optimization ablation (IA 1:%d, RR distribution)\n", opt.Scale)
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s %12s\n",
		"ranks", "all-on(s)", "-aggregation", "-SMP", "-CD(use QD)", "none(no-opt)")
	for i, k := range opt.sizes().commRanks {
		t := rows[i]
		fmt.Fprintf(w, "%-8d %12.4f %12.4f %12.4f %12.4f %12.4f\n", k, t[0], t[1], t[2], t[3], t[4])
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
	rows, err := ablation(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 12 — RR no-opt vs RR (IA 1:%d)\n", opt.Scale)
	fmt.Fprintf(w, "%-8s %14s %14s %12s\n", "ranks", "RR no-opt(s)", "RR(s)", "reduction")
	var reductions []float64
	for i, k := range opt.sizes().commRanks {
		tOpt, tNoOpt := rows[i][0], rows[i][4]
		red := 1 - tOpt/tNoOpt
		reductions = append(reductions, red)
		fmt.Fprintf(w, "%-8d %14.4f %14.4f %11.1f%%\n", k, tNoOpt, tOpt, red*100)
	}
	s := stats.Summarize(reductions)
	fmt.Fprintf(w, "reduction range %.0f%%..%.0f%% across the sweep (paper: ~40%% combined)\n",
		s.Min*100, s.Max*100)
	return nil
}
