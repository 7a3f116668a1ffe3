package experiments

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// runTable1 regenerates Table I: for each region preset, the full-scale
// sizes the paper reports and the sizes our generator achieves at scale,
// plus the degree statistics the generator is calibrated against
// (visits/person ≈ 5.5, visits/location ≈ 21.5).
func runTable1(w io.Writer, opt Options) error {
	fmt.Fprintf(w, "Table I — population data (paper full scale vs generated at 1:%d)\n", opt.Scale)
	fmt.Fprintf(w, "%-5s %15s %15s %15s | %10s %10s %10s %8s %8s\n",
		"name", "paper visits", "paper people", "paper locs",
		"gen visits", "gen people", "gen locs", "v/pers", "v/loc")
	for _, p := range opt.sizes().table1 {
		pop, err := statePop(p.Name, opt.Scale, opt.Seed)
		if err != nil {
			return err
		}
		vp := float64(pop.NumVisits()) / float64(pop.NumPersons())
		vl := float64(pop.NumVisits()) / float64(pop.NumLocations())
		fmt.Fprintf(w, "%-5s %15d %15d %15d | %10d %10d %10d %8.2f %8.2f\n",
			p.Name, p.Visits, p.People, p.Locations,
			pop.NumVisits(), pop.NumPersons(), pop.NumLocations(), vp, vl)
	}
	fmt.Fprintf(w, "paper reference: visits/person avg 5.5 (sigma 2.6); visits/location avg 21.5 (US)\n")
	return nil
}

// runTable2 regenerates Table II: the total load L_tot and the maximum
// per-location load before (l_max) and after (ℓ_max) splitLoc, in static
// load model units. The paper reports L_tot/l_max improving by 89x on
// average (min 11, max 290) across the 49 states.
func runTable2(w io.Writer, opt Options) error {
	fmt.Fprintf(w, "Table II — location load before/after splitLoc (1:%d scale, load model units x1e3)\n", opt.AnalysisScale)
	fmt.Fprintf(w, "%-5s %12s %12s %12s %14s %14s %10s\n",
		"state", "Ltot", "lmax", "lmax'", "Ltot/lmax", "Ltot/lmax'", "improve")
	var improvements []float64
	for _, name := range opt.sizes().states {
		pre, err := locate(name, opt.AnalysisScale, opt.Seed, 0)
		if err != nil {
			return err
		}
		post, err := locate(name, opt.AnalysisScale, opt.Seed, 16384)
		if err != nil {
			return err
		}
		// L_tot is the unsplit total: splitting conserves mass up to the
		// model's nonlinearity.
		subPre := pre.total / pre.max
		subPost := pre.total / post.max
		improvements = append(improvements, subPost/subPre)
		fmt.Fprintf(w, "%-5s %12.1f %12.4f %12.4f %14.0f %14.0f %9.1fx\n",
			name, pre.total*1e3, pre.max*1e3, post.max*1e3, subPre, subPost, subPost/subPre)
	}
	s := stats.Summarize(improvements)
	fmt.Fprintf(w, "L_tot/l_max improvement: avg %.0fx (min %.0fx, max %.0fx); paper: avg 89x (min 11x, max 290x)\n",
		s.Mean, s.Min, s.Max)
	return nil
}
