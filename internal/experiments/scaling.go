package experiments

import (
	"fmt"
	"io"

	episim "repro"
	"repro/internal/machine"
	"repro/internal/stats"
)

// runFig13 regenerates Figure 13: strong scaling of simulation time per
// day versus core-modules for each state and distribution strategy. The
// paper's shape: RR and GP flatten early (bounded by the heaviest
// location, Section III-B), while the splitLoc variants keep scaling, with
// GP-splitLoc winning at scale on communication.
func runFig13(w io.Writer, opt Options) error {
	perf := episim.DefaultPerfOptions()
	sz := opt.sizes()
	for _, name := range sz.fig13States {
		pop, err := statePop(name, opt.Scale, opt.Seed)
		if err != nil {
			return err
		}
		ks := sz.moduleSweep(pop.NumPersons() + pop.NumLocations())
		fmt.Fprintf(w, "Figure 13 — %s (1:%d): simulation time per day (s) vs core-modules\n", name, opt.Scale)
		fmt.Fprintf(w, "%-14s", "strategy")
		for _, k := range ks {
			fmt.Fprintf(w, " %10d", k)
		}
		fmt.Fprintln(w)
		for _, po := range []episim.PlacementOptions{
			{Strategy: episim.RR},
			{Strategy: episim.GP},
			{Strategy: episim.RR, SplitLoc: true},
			{Strategy: episim.GP, SplitLoc: true},
		} {
			po.Seed = opt.Seed
			fmt.Fprintf(w, "%-14s", po.Label())
			for _, k := range ks {
				po.Ranks = k
				t, err := price(pop, po, perf)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %10.4f", t[0])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runFig14 regenerates Figure 14: the maximum per-partition edge cut under
// GP-splitLoc versus partition count, compared against the hypothetical
// all-remote-communication value (total edges / partitions). The paper
// reports ratios from 2.7x (NY) to 19x (WY), averaging 7.83x across the
// seven states at the largest partition counts.
func runFig14(w io.Writer, opt Options) error {
	ks := opt.sizes().cutRanks
	fmt.Fprintf(w, "Figure 14 — max per-partition edge cut (GP-splitLoc, 1:%d)\n", opt.Scale)
	fmt.Fprintf(w, "%-5s", "state")
	for _, k := range ks {
		fmt.Fprintf(w, " %12s %8s", fmt.Sprintf("maxcut@%d", k), "ratio")
	}
	fmt.Fprintln(w)
	var lastRatios []float64
	for _, name := range opt.sizes().states {
		pop, err := statePop(name, opt.Scale, opt.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-5s", name)
		for i, k := range ks {
			if pop.NumPersons()/k < 4 {
				fmt.Fprintf(w, " %12s %8s", "-", "-")
				continue
			}
			pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
				Strategy: episim.GP, SplitLoc: true, Ranks: k, Seed: opt.Seed})
			if err != nil {
				return err
			}
			q := pl.Quality
			allRemote := float64(q.TotalEdgeWeight) / float64(k)
			ratio := float64(q.MaxPartCut) / allRemote
			fmt.Fprintf(w, " %12d %7.1fx", q.MaxPartCut, ratio)
			if i == len(ks)-1 {
				lastRatios = append(lastRatios, ratio)
			}
		}
		fmt.Fprintln(w)
	}
	if len(lastRatios) > 0 {
		s := stats.Summarize(lastRatios)
		fmt.Fprintf(w, "ratio vs all-remote at k=%d: avg %.2fx (paper: avg 7.83x, WY 19x, NY 2.7x)\n",
			ks[len(ks)-1], s.Mean)
	}
	return nil
}

// runHeadline reproduces the introduction's headline comparison: strong
// scaling speedup and parallel efficiency of the optimized EpiSimdemics on
// the US population, versus the flattening un-split baseline — the shape
// behind "speedup of 14,357 on 64K cores (22% efficiency)" and "58,649 on
// 360,448 cores (16.3%)", vs the prior state of the art's 10,000 on 64K
// (15.2%).
func runHeadline(w io.Writer, opt Options) error {
	sz := opt.sizes()
	scale := opt.Scale * sz.usDivisor
	pop, err := statePop("US", scale, opt.Seed)
	if err != nil {
		return err
	}
	perf := episim.DefaultPerfOptions()
	fmt.Fprintf(w, "Headline — US (1:%d), speedup and efficiency vs core-modules\n", scale)
	ks := sz.usModules
	for _, r := range []struct {
		label string
		po    episim.PlacementOptions
		maxK  int
	}{
		{"RR (no split)", episim.PlacementOptions{Strategy: episim.RR}, 1 << 30},
		{"RR-splitLoc", episim.PlacementOptions{Strategy: episim.RR, SplitLoc: true}, 1 << 30},
		{"GP-splitLoc", episim.PlacementOptions{Strategy: episim.GP, SplitLoc: true},
			(pop.NumPersons() + pop.NumLocations()) / 8},
	} {
		var t1 float64
		fmt.Fprintf(w, "%-14s", r.label)
		for _, k := range ks {
			if k > r.maxK {
				fmt.Fprintf(w, " %22s", "-")
				continue
			}
			po := r.po
			po.Ranks = k
			po.Seed = opt.Seed
			po.SplitMaxPartitions = ks[len(ks)-1]
			ts, err := price(pop, po, perf)
			if err != nil {
				return err
			}
			t := ts[0]
			if k == 1 {
				t1 = t
				fmt.Fprintf(w, " %22s", fmt.Sprintf("t1=%.1fs", t))
				continue
			}
			sp := machine.Speedup(t1, t)
			fmt.Fprintf(w, " %22s", fmt.Sprintf("%.0fx(%4.1f%%)@%d", sp, 100*machine.Efficiency(t1, t, k), k))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "paper: prior art 10,000x @64K (15.2%%); this work 14,357x @64K (22%%), 58,649x @360,448 (16.3%%)\n")
	fmt.Fprintf(w, "(absolute speedups scale with data size; the reproduced claim is the shape:\n")
	fmt.Fprintf(w, " un-split RR flattens at Ltot/lmax, splitLoc keeps scaling with usable efficiency)\n")
	return nil
}
