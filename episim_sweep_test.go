package episim_test

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	episim "repro"
)

// sweepSpec is the acceptance-criteria sweep: a Table I state, two
// placement labels × two scenarios × eight replicates.
func sweepSpec(workers int) *episim.SweepSpec {
	scenario, err := os.ReadFile("scenarios/school-closure.txt")
	if err != nil {
		panic(err)
	}
	return &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{State: "WY", Scale: 600}},
		Placements: []episim.SweepPlacement{
			{Strategy: "RR", Ranks: 8},
			{Strategy: "GP", SplitLoc: true, Ranks: 8},
		},
		Scenarios: []episim.SweepScenario{
			{Name: "baseline"},
			{Name: "school-closure", Text: string(scenario)},
		},
		Replicates:        8,
		Days:              30,
		Seed:              7,
		InitialInfections: 5,
		AggBufferSize:     64,
		Workers:           workers,
	}
}

func TestRunSweepEndToEnd(t *testing.T) {
	res, err := episim.RunSweep(sweepSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulations != 2*2*8 {
		t.Fatalf("simulations = %d, want 32", res.Simulations)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}

	// The headline guarantee: each unique (population, placement) pair was
	// generated and partitioned exactly once, shared by all 16 runs that
	// use it.
	if len(res.PopulationBuilds) != 1 {
		t.Fatalf("population builds = %v, want one key", res.PopulationBuilds)
	}
	if len(res.PlacementBuilds) != 2 {
		t.Fatalf("placement builds = %v, want two keys", res.PlacementBuilds)
	}
	for key, n := range res.PlacementBuilds {
		if n != 1 {
			t.Fatalf("placement %q built %d times, want 1", key, n)
		}
	}

	seenLabels := map[string]bool{}
	for _, c := range res.Cells {
		seenLabels[c.Placement] = true
		if c.Replicates != 8 || c.Days != 30 {
			t.Fatalf("cell %s shape: %d reps × %d days", c.Label, c.Replicates, c.Days)
		}
		if c.TotalInfections.Mean < float64(5) {
			t.Fatalf("cell %s: mean infections %v below index cases", c.Label, c.TotalInfections.Mean)
		}
		if !(c.AttackRate.CILo <= c.AttackRate.Mean && c.AttackRate.Mean <= c.AttackRate.CIHi) {
			t.Fatalf("cell %s: CI [%v, %v] does not bracket mean %v",
				c.Label, c.AttackRate.CILo, c.AttackRate.CIHi, c.AttackRate.Mean)
		}
		if len(c.MeanCurve) != 30 || len(c.QuantileCurves) != 3 {
			t.Fatalf("cell %s: curve shapes %d/%d", c.Label, len(c.MeanCurve), len(c.QuantileCurves))
		}
		// p10 <= mean-ish median <= p90, day by day.
		for d := 0; d < c.Days; d++ {
			if c.QuantileCurves[0][d] > c.QuantileCurves[2][d] {
				t.Fatalf("cell %s day %d: p10 %v > p90 %v",
					c.Label, d, c.QuantileCurves[0][d], c.QuantileCurves[2][d])
			}
		}
	}
	if !seenLabels["RR×8"] || !seenLabels["GP-splitLoc×8"] {
		t.Fatalf("placement labels = %v", seenLabels)
	}

	// Both emitters produce the mean + p10/p90 curves and attack CIs.
	var csv bytes.Buffer
	if err := res.WriteCurvesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "population,placement,model,scenario,day,mean,q10,q50,q90") {
		t.Fatalf("curves header = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	if got := strings.Count(csv.String(), "\n"); got != 1+4*30 {
		t.Fatalf("curve rows = %d, want %d", got, 1+4*30)
	}
	var sum bytes.Buffer
	if err := res.WriteSummaryCSV(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "attack_ci_lo,attack_ci_hi") {
		t.Fatal("summary CSV missing attack-rate CI columns")
	}

	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"attack_rate"`, `"quantile_curves"`} {
		if !strings.Contains(js.String(), want) {
			t.Fatalf("JSON missing %s", want)
		}
	}
	// Build accounting is execution state, not result: it must NOT be in
	// the emitted JSON, or a warm run (0 builds) and a cold run (1 build)
	// of the same spec could never be byte-identical.
	if strings.Contains(js.String(), `"placement_builds"`) {
		t.Fatal("JSON leaks placement_builds execution accounting")
	}

	byKey := map[string]episim.SweepCellResult{}
	for _, c := range res.Cells {
		byKey[c.Placement+"/"+c.Scenario] = c
	}

	// Replicate seeds are shared across placements, and the engine
	// guarantees bit-identical trajectories across data distributions —
	// so RR and GP cells of the same scenario must aggregate identically.
	for _, scn := range []string{"baseline", "school-closure"} {
		rr, gp := byKey["RR×8/"+scn], byKey["GP-splitLoc×8/"+scn]
		for d := range rr.MeanCurve {
			if rr.MeanCurve[d] != gp.MeanCurve[d] {
				t.Fatalf("%s day %d: RR curve %v != GP curve %v (distribution invariance broken)",
					scn, d, rr.MeanCurve[d], gp.MeanCurve[d])
			}
		}
	}

	// Common random numbers pair the scenarios: school closure must not
	// exceed its baseline's attack rate beyond stochastic slack.
	for _, pl := range []string{"RR×8", "GP-splitLoc×8"} {
		base, closed := byKey[pl+"/baseline"], byKey[pl+"/school-closure"]
		if closed.AttackRate.Mean > base.AttackRate.Mean*1.05 {
			t.Fatalf("%s: closure attack %.4f noticeably above baseline %.4f",
				pl, closed.AttackRate.Mean, base.AttackRate.Mean)
		}
	}
}

// TestRunSweepDeterministic: the same spec + master seed must produce
// byte-identical aggregate JSON across runs, sequential or parallel.
func TestRunSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps")
	}
	var outs []string
	for _, workers := range []int{1, 8} {
		res, err := episim.RunSweep(sweepSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatal("sweep JSON differs between sequential and parallel execution")
	}
}

// TestDispatchOrderIgnoresCache: the sweep's dispatch order is a function
// of the spec alone. A warm run over a shared cache dispatches its cells
// in the same order as the cold run that filled it, whatever the cache
// now holds.
func TestDispatchOrderIgnoresCache(t *testing.T) {
	spec := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "town", People: 3000, Locations: 600}},
		Placements: []episim.SweepPlacement{
			{Strategy: "RR", Ranks: 64},
			{Strategy: "RR", Ranks: 2},
		},
		Replicates: 1,
		Days:       5,
		Seed:       3,
		Workers:    1,
	}
	cache := episim.NewSweepCache(0)
	order := func() []int {
		var idx []int // one worker: OnCell runs in dispatch order
		_, err := episim.RunSweepContext(context.Background(), spec, &episim.SweepOptions{
			Cache:  cache,
			OnCell: func(c episim.SweepCellResult) { idx = append(idx, c.Index) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	cold, warm := order(), order()
	if !slices.Equal(cold, warm) {
		t.Fatalf("cold run dispatched %v, warm run %v", cold, warm)
	}
}
