package ensemble

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/synthpop"
	"repro/internal/xrand"
)

// fakeHooks counts engine calls and fabricates deterministic results
// from the job seed, so executor tests run in microseconds.
type fakeHooks struct {
	popBuilds atomic.Int64
	plBuilds  atomic.Int64
}

func (f *fakeHooks) hooks() Hooks {
	return Hooks{
		GeneratePopulation: func(ps PopulationSpec, seed uint64) (*synthpop.Population, error) {
			f.popBuilds.Add(1)
			return &synthpop.Population{Name: ps.Label()}, nil
		},
		BuildPlacement: func(pop *synthpop.Population, ps PlacementSpec, seed uint64) (any, error) {
			f.plBuilds.Add(1)
			return ps.Label(), nil
		},
		BuildCheckpoint: func(pl any, job Job) (any, error) {
			return fmt.Sprintf("ck seed=%d day=%d", job.Seed, job.Spec.ForkDay), nil
		},
		Start: func(pl, ck any, job Job) (any, error) {
			return pl, nil
		},
		Finish: func(eng any, job Job) (*core.Result, error) {
			days := make([]core.DayReport, job.Spec.Days)
			var total int64
			for d := range days {
				n := int64(xrand.KeyedIntn(100, job.Seed, uint64(d)))
				days[d] = core.DayReport{Day: d, NewInfections: n}
				total += n
			}
			return &core.Result{
				Days:            days,
				TotalInfections: total,
				AttackRate:      float64(total) / 10000,
			}, nil
		},
	}
}

func testSpec() *Spec {
	return &Spec{
		Populations: []PopulationSpec{
			{Name: "a", People: 100, Locations: 10},
			{Name: "b", People: 200, Locations: 20},
		},
		Placements: []PlacementSpec{
			{Strategy: "RR", Ranks: 4},
			{Strategy: "GP", SplitLoc: true, Ranks: 4},
		},
		Scenarios: []ScenarioSpec{
			{Name: "baseline"},
			{Name: "closure", Text: "when day >= 2 { close school for 7 }"},
		},
		Replicates: 8,
		Days:       20,
		Seed:       42,
	}
}

func TestRunBuildsEachPlacementOnce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := &fakeHooks{}
			spec := testSpec()
			spec.Workers = workers
			res, err := RunContext(context.Background(), spec, f.hooks(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// 2 pops × 2 placements × 1 model × 2 scenarios × 8 replicates.
			if res.Simulations != 64 {
				t.Fatalf("simulations = %d, want 64", res.Simulations)
			}
			if got := f.popBuilds.Load(); got != 2 {
				t.Fatalf("population builds = %d, want 2 (one per unique population)", got)
			}
			if got := f.plBuilds.Load(); got != 4 {
				t.Fatalf("placement builds = %d, want 4 (one per unique pop×placement)", got)
			}
			if len(res.PlacementBuilds) != 4 {
				t.Fatalf("placement cache keys = %d, want 4", len(res.PlacementBuilds))
			}
			for key, n := range res.PlacementBuilds {
				if n != 1 {
					t.Fatalf("placement %q built %d times", key, n)
				}
			}
			for key, n := range res.PopulationBuilds {
				if n != 1 {
					t.Fatalf("population %q built %d times", key, n)
				}
			}
		})
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var outputs []string
	for _, workers := range []int{1, 2, 8} {
		f := &fakeHooks{}
		spec := testSpec()
		spec.Workers = workers
		res, err := RunContext(context.Background(), spec, f.hooks(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Fatal("aggregate JSON differs across worker counts")
	}
}

func TestReplicateSeedsAreContentKeyed(t *testing.T) {
	spec := testSpec()
	spec.Normalize()
	cells := spec.Cells()
	// Seeds must be distinct per (population, model, replicate) — and
	// deliberately SHARED across placements and scenarios: common random
	// numbers pair the replicates for intervention comparison.
	type stream struct{ pop, model string }
	seen := map[uint64]stream{}
	for _, c := range cells {
		for r := 0; r < spec.Replicates; r++ {
			s := c.ReplicateSeed(spec.Seed, r)
			cur := stream{c.Population.Label(), c.Model.Name}
			if prev, dup := seen[s]; dup && prev != cur {
				t.Fatalf("seed collision between %v and %v", prev, cur)
			}
			seen[s] = cur
		}
	}
	// All cells of the same population share seeds across placements and
	// scenarios.
	base := cells[0]
	for _, c := range cells {
		if c.Population.Label() != base.Population.Label() || c.Model.Name != base.Model.Name {
			continue
		}
		if c.ReplicateSeed(spec.Seed, 3) != base.ReplicateSeed(spec.Seed, 3) {
			t.Fatalf("cell %q not seed-paired with %q", c.Label(), base.Label())
		}
	}
	// Adding a population must not shift seeds of existing cells.
	grown := testSpec()
	grown.Populations = append([]PopulationSpec{{Name: "z", People: 50, Locations: 5}}, grown.Populations...)
	grown.Normalize()
	for _, c := range grown.Cells() {
		if c.Population.Name == "z" {
			continue
		}
		for r := 0; r < spec.Replicates; r++ {
			cur := stream{c.Population.Label(), c.Model.Name}
			if owner, ok := seen[c.ReplicateSeed(grown.Seed, r)]; !ok || owner != cur {
				t.Fatalf("seed of %q r%d changed when the grid grew", c.Label(), r)
			}
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.Normalize()
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := parsed.Encode(&again); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := spec.Encode(&first); err != nil {
		t.Fatal(err)
	}
	if first.String() != again.String() {
		t.Fatalf("round trip changed the spec:\n%s\nvs\n%s", first.String(), again.String())
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"unknown-field", `{"populations":[{"state":"WY","scale":100}],"placements":[{"strategy":"RR","ranks":2}],"replicates":1,"days":5,"bogus":1}`},
		{"no-populations", `{"placements":[{"strategy":"RR","ranks":2}],"replicates":1,"days":5}`},
		{"bad-strategy", `{"populations":[{"state":"WY","scale":100}],"placements":[{"strategy":"XX","ranks":2}],"replicates":1,"days":5}`},
		{"bad-scenario", `{"populations":[{"state":"WY","scale":100}],"placements":[{"strategy":"RR","ranks":2}],"scenarios":[{"name":"x","text":"when {"}],"replicates":1,"days":5}`},
		{"bad-quantile", `{"populations":[{"state":"WY","scale":100}],"placements":[{"strategy":"RR","ranks":2}],"replicates":1,"days":5,"quantiles":[1.5]}`},
		{"bad-model", `{"populations":[{"state":"WY","scale":100}],"placements":[{"strategy":"RR","ranks":2}],"models":[{"name":"x","text":"model broken"}],"replicates":1,"days":5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpec(strings.NewReader(tc.json)); err == nil {
				t.Fatal("want parse error")
			}
		})
	}
}

func TestRunPropagatesSimulateError(t *testing.T) {
	f := &fakeHooks{}
	h := f.hooks()
	h.Finish = func(eng any, job Job) (*core.Result, error) {
		return nil, fmt.Errorf("boom")
	}
	spec := testSpec()
	spec.Workers = 4
	if _, err := RunContext(context.Background(), spec, h, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want simulate error, got %v", err)
	}
}

func TestAggregatorCurvesAndDists(t *testing.T) {
	agg := newAggregator(4)
	// Four replicates with known curves; attack rates 0.1..0.4.
	for r := 0; r < 4; r++ {
		days := []core.DayReport{
			{Day: 0, NewInfections: int64(r)},      // 0 1 2 3
			{Day: 1, NewInfections: int64(10 * r)}, // 0 10 20 30 — peak for r>0
		}
		agg.add(r, &core.Result{
			Days:            days,
			TotalInfections: int64(11 * r),
			AttackRate:      float64(r+1) / 10,
		})
	}
	cell := Cell{Population: PopulationSpec{Name: "p", People: 1, Locations: 1},
		Placement: PlacementSpec{Strategy: "RR", Ranks: 1},
		Model:     ModelSpec{Name: "m"}, Scenario: ScenarioSpec{Name: "s"}}
	res := agg.finalize(cell, []float64{0, 0.5, 1}, 0.95)
	if res.Days != 2 || res.Replicates != 4 {
		t.Fatalf("shape = %d days × %d reps", res.Days, res.Replicates)
	}
	if res.MeanCurve[0] != 1.5 || res.MeanCurve[1] != 15 {
		t.Fatalf("mean curve = %v", res.MeanCurve)
	}
	// Quantile curves: [0]=min, [1]=median, [2]=max per day.
	if res.QuantileCurves[0][1] != 0 || res.QuantileCurves[2][1] != 30 || res.QuantileCurves[1][1] != 15 {
		t.Fatalf("quantile curves = %v", res.QuantileCurves)
	}
	if res.AttackRate.Mean != 0.25 || res.AttackRate.Min != 0.1 || res.AttackRate.Max != 0.4 {
		t.Fatalf("attack dist = %+v", res.AttackRate)
	}
	if !(res.AttackRate.CILo < res.AttackRate.Mean && res.AttackRate.Mean < res.AttackRate.CIHi) {
		t.Fatalf("CI does not bracket the mean: %+v", res.AttackRate)
	}
	// Peak day: replicate 0 peaks on day 0 (all-zero curve peaks at 0),
	// others on day 1.
	if res.PeakDay.Max != 1 || res.PeakHeight.Max != 30 {
		t.Fatalf("peak dist = %+v %+v", res.PeakDay, res.PeakHeight)
	}
}

func TestEmittersShapes(t *testing.T) {
	f := &fakeHooks{}
	spec := testSpec()
	res, err := RunContext(context.Background(), spec, f.hooks(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var sum bytes.Buffer
	if err := res.WriteSummaryCSV(&sum); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sum.String()), "\n")
	if len(lines) != 1+8 { // header + 8 cells
		t.Fatalf("summary rows = %d, want 9", len(lines))
	}
	if !strings.HasPrefix(lines[0], "population,placement,model,scenario,replicates,attack_mean,attack_ci_lo,attack_ci_hi") {
		t.Fatalf("summary header = %q", lines[0])
	}

	var curves bytes.Buffer
	if err := res.WriteCurvesCSV(&curves); err != nil {
		t.Fatal(err)
	}
	clines := strings.Split(strings.TrimSpace(curves.String()), "\n")
	if len(clines) != 1+8*spec.Days {
		t.Fatalf("curve rows = %d, want %d", len(clines), 1+8*spec.Days)
	}
	if clines[0] != "population,placement,model,scenario,day,mean,q10,q50,q90" {
		t.Fatalf("curves header = %q", clines[0])
	}
}

func TestEncodeResultJSON(t *testing.T) {
	res := &core.Result{
		Days: []core.DayReport{
			{Day: 0, NewInfections: 2},
			{Day: 1, NewInfections: 7},
			{Day: 2, NewInfections: 3},
		},
		TotalInfections: 12,
		AttackRate:      0.12,
		FinalCounts:     map[string]int64{"recovered": 12, "susceptible": 88},
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"total_infections": 12`,
		`"attack_rate": 0.12`,
		`"peak_day": 1`,
		`"peak_height": 7`,
		`"epi_curve"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}
