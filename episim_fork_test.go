package episim_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	episim "repro"
)

// forkBranches is a small counterfactual axis: the do-nothing baseline,
// a school closure and a vaccination+quarantine package, all triggering
// strictly after the fork day.
func forkBranches() []episim.SweepIntervention {
	return []episim.SweepIntervention{
		{Name: "baseline"},
		{Name: "closure", Schedule: episim.InterventionSchedule{
			Closures: []episim.InterventionClosure{{LocType: "school", Day: 11, Days: 5}},
		}},
		{Name: "vax-iso", Schedule: episim.InterventionSchedule{
			Vaccinations: []episim.InterventionVaccination{{Day: 12, Fraction: 0.3}},
			Quarantines:  []episim.InterventionQuarantine{{State: "symptomatic", Day: 11, Days: 7}},
		}},
	}
}

// TestForkSweepMatchesScratchSweep is the end-to-end equivalence
// oracle: a version 2 sweep (intervention axis, fork-point resume) must
// aggregate identically to a version 1 sweep whose scenarios carry the
// same combined base+branch text and simulate every day from scratch —
// fork mode is an execution strategy, not a semantic change.
func TestForkSweepMatchesScratchSweep(t *testing.T) {
	closure, err := os.ReadFile("scenarios/school-closure.txt")
	if err != nil {
		t.Fatal(err)
	}
	base := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "forktown", People: 2500, Locations: 500}},
		Placements:  []episim.SweepPlacement{{Strategy: "RR", Ranks: 4}},
		Scenarios: []episim.SweepScenario{
			{Name: "open"},
			{Name: "reactive", Text: string(closure)},
		},
		Replicates:        2,
		Days:              24,
		Seed:              7,
		InitialInfections: 5,
	}

	forked := *base
	forked.Interventions = forkBranches()
	forked.ForkDay = 10
	fres, err := episim.RunSweep(&forked)
	if err != nil {
		t.Fatal(err)
	}

	// The scratch twin: one legacy scenario per (base scenario, branch),
	// in the grid order Cells() enumerates (branches innermost).
	scratch := *base
	scratch.Scenarios = nil
	for _, sc := range base.Scenarios {
		for _, iv := range forkBranches() {
			text := sc.Text
			if branch := iv.Schedule.Compile(); branch != "" {
				if strings.TrimSpace(text) == "" {
					text = branch
				} else {
					text = strings.TrimRight(text, "\n") + "\n" + branch
				}
			}
			scratch.Scenarios = append(scratch.Scenarios,
				episim.SweepScenario{Name: sc.Name + "+" + iv.Name, Text: text})
		}
	}
	sres, err := episim.RunSweep(&scratch)
	if err != nil {
		t.Fatal(err)
	}

	if len(fres.Cells) != 6 || len(sres.Cells) != 6 {
		t.Fatalf("cells = %d forked / %d scratch, want 6 each", len(fres.Cells), len(sres.Cells))
	}
	for i, fc := range fres.Cells {
		sc := sres.Cells[i]
		if fc.Error != "" || sc.Error != "" {
			t.Fatalf("cell %d failed: %q / %q", i, fc.Error, sc.Error)
		}
		if !reflect.DeepEqual(fc.MeanCurve, sc.MeanCurve) ||
			!reflect.DeepEqual(fc.QuantileCurves, sc.QuantileCurves) {
			t.Fatalf("cell %d (%s): forked curves differ from scratch (%s)", i, fc.Label, sc.Label)
		}
		if !reflect.DeepEqual(fc.AttackRate, sc.AttackRate) ||
			!reflect.DeepEqual(fc.TotalInfections, sc.TotalInfections) {
			t.Fatalf("cell %d (%s): forked aggregates differ from scratch", i, fc.Label)
		}
	}

	// The branches only make sense if they actually diverge after the
	// fork: the closure branch must not track the do-nothing baseline.
	if reflect.DeepEqual(fres.Cells[0].MeanCurve, fres.Cells[1].MeanCurve) {
		t.Fatal("closure branch identical to baseline — interventions had no effect")
	}

	// Fork-mode economics with the real engine: one prefix per (base
	// scenario, replicate) — 2 × 2 = 4 checkpoints — and strictly fewer
	// stepped days than the scratch twin.
	if len(fres.CheckpointBuilds) != 4 {
		t.Fatalf("checkpoint keys = %d, want 4", len(fres.CheckpointBuilds))
	}
	for key, n := range fres.CheckpointBuilds {
		if n != 1 {
			t.Fatalf("checkpoint %q built %d times", key, n)
		}
	}
	wantDays := int64(4*forked.ForkDay + 12*(forked.Days-forked.ForkDay))
	if fres.SimulatedDays != wantDays {
		t.Fatalf("forked simulated days = %d, want %d", fres.SimulatedDays, wantDays)
	}
	if sres.SimulatedDays != int64(12*base.Days) {
		t.Fatalf("scratch simulated days = %d, want %d", sres.SimulatedDays, 12*base.Days)
	}
	if fres.SimulatedDays >= sres.SimulatedDays {
		t.Fatalf("fork mode stepped %d days, not fewer than scratch's %d",
			fres.SimulatedDays, sres.SimulatedDays)
	}
}

// TestForkSweep16BranchWarmReuse pins the acceptance numbers on a
// 16-branch counterfactual sweep: cold, the run simulates prefix-once +
// sixteen suffixes (far under sixteen from-scratch horizons); warm over
// the same cache dir, a fresh process pays zero prefix days — every
// branch restores from the disk-tier checkpoint — and emits
// byte-identical JSON.
func TestForkSweep16BranchWarmReuse(t *testing.T) {
	ivs := make([]episim.SweepIntervention, 16)
	for i := range ivs {
		ivs[i] = episim.SweepIntervention{
			Name: fmt.Sprintf("close%d", i),
			Schedule: episim.InterventionSchedule{
				Closures: []episim.InterventionClosure{{LocType: "school", Day: 13, Days: i + 1}},
			},
		}
	}
	spec := &episim.SweepSpec{
		Populations:       []episim.SweepPopulation{{Name: "forktown", People: 2000, Locations: 400}},
		Placements:        []episim.SweepPlacement{{Strategy: "RR", Ranks: 4}},
		Interventions:     ivs,
		ForkDay:           12,
		Replicates:        1,
		Days:              20,
		Seed:              11,
		InitialInfections: 5,
	}
	dir := t.TempDir()

	var outs []string
	for run := 0; run < 2; run++ {
		cache, err := episim.NewSweepCacheDir(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := episim.RunSweepContext(t.Context(), spec, &episim.SweepOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulations != 16 {
			t.Fatalf("run %d: simulations = %d, want 16", run, res.Simulations)
		}
		suffix := int64(16 * (spec.Days - spec.ForkDay))
		if run == 0 {
			// Cold: one prefix build + sixteen suffixes, against 16 × 20
			// from scratch.
			if want := int64(spec.ForkDay) + suffix; res.SimulatedDays != want {
				t.Fatalf("cold simulated days = %d, want %d", res.SimulatedDays, want)
			}
			if res.SimulatedDays >= int64(16*spec.Days) {
				t.Fatal("16-branch fork sweep did not beat from-scratch person-days")
			}
			if len(res.CheckpointBuilds) != 1 {
				t.Fatalf("cold checkpoint keys = %v, want one", res.CheckpointBuilds)
			}
			for key, n := range res.CheckpointBuilds {
				if n != 1 {
					t.Fatalf("cold: checkpoint %q built %d times", key, n)
				}
			}
		} else {
			// Warm: the disk tier serves the prefix; zero prefix days paid.
			if res.SimulatedDays != suffix {
				t.Fatalf("warm simulated days = %d, want %d (zero prefix)", res.SimulatedDays, suffix)
			}
			for key, n := range res.CheckpointBuilds {
				if n != 0 {
					t.Fatalf("warm run rebuilt checkpoint %q %d times", key, n)
				}
			}
		}
		if got := cache.CheckpointRestores(); got != 16 {
			t.Fatalf("run %d: checkpoint restores = %d, want 16", run, got)
		}
		if ck := cache.StoreStats("checkpoint"); ck == nil || ck.Files < 1 {
			t.Fatalf("run %d: checkpoint store stats = %+v", run, ck)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatal("cold and warm fork sweeps emitted different JSON")
	}
}
