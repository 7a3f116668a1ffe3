package ensemble

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/interventions"
	"repro/internal/xrand"
)

// forkFakeHooks extends fakeHooks with hooks that count checkpoint
// builds, restores and resumes and fabricate each result from the job
// alone, with zero real simulation work.
type forkFakeHooks struct {
	fakeHooks
	ckBuilds atomic.Int64
	restores atomic.Int64
	resumes  atomic.Int64
}

// fakeResult fabricates a deterministic full-horizon trajectory from the
// job's seed and intervention branch.
func fakeResult(job Job) *core.Result {
	branch := hashString(job.Cell.InterventionName())
	days := make([]core.DayReport, job.Spec.Days)
	var total int64
	for d := range days {
		n := int64(xrand.KeyedIntn(100, job.Seed, branch, uint64(d)))
		days[d] = core.DayReport{Day: d, NewInfections: n}
		total += n
	}
	return &core.Result{Days: days, TotalInfections: total, AttackRate: float64(total) / 10000}
}

func (f *forkFakeHooks) hooks() Hooks {
	h := f.fakeHooks.hooks()
	h.BuildCheckpoint = func(pl any, job Job) (any, error) {
		f.ckBuilds.Add(1)
		return fmt.Sprintf("ck seed=%d day=%d", job.Seed, job.Spec.ForkDay), nil
	}
	h.Start = func(pl, ck any, job Job) (any, error) {
		if ck != nil {
			f.restores.Add(1)
		}
		return ck, nil
	}
	h.Finish = func(engine any, job Job) (*core.Result, error) {
		if engine != nil {
			f.resumes.Add(1)
		}
		return fakeResult(job), nil
	}
	return h
}

// forkSpec is a 16-branch intervention sweep over one base cell.
func forkSpec(branches int) *Spec {
	ivs := make([]InterventionSpec, branches)
	for i := range ivs {
		ivs[i] = InterventionSpec{
			Name: fmt.Sprintf("close%d", i),
			Schedule: interventions.Schedule{
				Closures: []interventions.Closure{{LocType: "school", Day: 11, Days: i + 1}},
			},
		}
	}
	return &Spec{
		Populations:   []PopulationSpec{{Name: "a", People: 100, Locations: 10}},
		Placements:    []PlacementSpec{{Strategy: "RR", Ranks: 4}},
		Interventions: ivs,
		ForkDay:       10,
		Replicates:    2,
		Days:          20,
		Seed:          42,
	}
}

// TestForkSweepSharesPrefix pins the whole economics of fork mode: a
// 16-branch intervention sweep builds exactly one checkpoint per
// replicate (singleflight across its branches), resumes every branch
// from it, and steps far fewer total days than 32 from-scratch runs —
// prefix once plus a suffix per branch.
func TestForkSweepSharesPrefix(t *testing.T) {
	f := &forkFakeHooks{}
	spec := forkSpec(16)
	spec.Workers = 8
	res, err := RunContext(context.Background(), spec, f.hooks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulations != 32 { // 16 branches × 2 replicates
		t.Fatalf("simulations = %d, want 32", res.Simulations)
	}
	if got := f.ckBuilds.Load(); got != 2 {
		t.Fatalf("checkpoint builds = %d, want 2 (one per replicate)", got)
	}
	if got := f.restores.Load(); got != 32 {
		t.Fatalf("restores = %d, want 32", got)
	}
	if got := f.resumes.Load(); got != 32 {
		t.Fatalf("resumes = %d, want 32", got)
	}
	if len(res.CheckpointBuilds) != 2 {
		t.Fatalf("checkpoint keys = %d, want 2", len(res.CheckpointBuilds))
	}
	for key, n := range res.CheckpointBuilds {
		if n != 1 {
			t.Fatalf("checkpoint %q built %d times", key, n)
		}
	}
	// 2 prefixes × 10 days + 32 suffixes × 10 days, against 32 × 20 from
	// scratch.
	scratch := int64(32 * spec.Days)
	want := int64(2*spec.ForkDay + 32*(spec.Days-spec.ForkDay))
	if res.SimulatedDays != want {
		t.Fatalf("simulated days = %d, want %d", res.SimulatedDays, want)
	}
	if res.SimulatedDays >= scratch {
		t.Fatalf("fork mode stepped %d days, not fewer than %d from scratch",
			res.SimulatedDays, scratch)
	}
}

// TestForkDeterministicAcrossWorkerCounts extends the executor's
// byte-identity guarantee to version 2 grids.
func TestForkDeterministicAcrossWorkerCounts(t *testing.T) {
	var outputs []string
	for _, workers := range []int{1, 2, 8} {
		f := &forkFakeHooks{}
		spec := forkSpec(5)
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
		t.Fatal("fork-mode aggregate JSON differs across worker counts")
	}
}

// TestInterventionSpecValidation pins the version 2 invariants.
func TestInterventionSpecValidation(t *testing.T) {
	base := func() *Spec { return forkSpec(2) }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"negative fork day", func(s *Spec) { s.ForkDay = -1 }, "negative"},
		{"fork day without axis", func(s *Spec) { s.Interventions = nil }, "without an intervention axis"},
		{"fork day at horizon", func(s *Spec) { s.ForkDay = s.Days }, "before the"},
		{"axis without days", func(s *Spec) { s.Days = 0 }, "explicit days"},
		{"duplicate names", func(s *Spec) { s.Interventions[1].Name = s.Interventions[0].Name }, "duplicate"},
		{"trigger inside prefix", func(s *Spec) {
			s.Interventions[0].Closures[0].Day = s.ForkDay
		}, "after fork day"},
		{"bad fraction", func(s *Spec) {
			s.Interventions[0].Vaccinations = []interventions.Vaccination{{Day: 11, Fraction: 1.5}}
		}, "fraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(s)
			s.Normalize()
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	ok := base()
	ok.Normalize()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fork spec rejected: %v", err)
	}
}

// TestSpecVersionAndDecodeCompat pins the one-decode-path contract:
// ParseSpec accepts both wire forms, reports version 1 for the legacy
// grid and version 2 for the intervention axis, and a version 2 spec
// JSON round-trips losslessly.
func TestSpecVersionAndDecodeCompat(t *testing.T) {
	legacy := `{"populations":[{"name":"p","people":100,"locations":10}],
		"placements":[{"strategy":"RR","ranks":2}],"replicates":1,"days":10}`
	s1, err := ParseSpec(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version() != 1 {
		t.Fatalf("legacy spec version = %d, want 1", s1.Version())
	}
	if n := len(s1.Cells()); n != 1 {
		t.Fatalf("legacy cells = %d, want 1", n)
	}

	v2 := `{"populations":[{"name":"p","people":100,"locations":10}],
		"placements":[{"strategy":"RR","ranks":2}],"replicates":1,"days":10,
		"fork_day":4,"interventions":[
			{"name":"baseline"},
			{"closures":[{"loc_type":"school","day":5,"days":3}],
			 "vaccinations":[{"day":6,"fraction":0.25}],
			 "quarantines":[{"state":"symptomatic","day":5,"days":7}]}]}`
	s2, err := ParseSpec(strings.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version() != 2 {
		t.Fatalf("intervention spec version = %d, want 2", s2.Version())
	}
	cells := s2.Cells()
	if len(cells) != 2 {
		t.Fatalf("v2 cells = %d, want 2 (one per branch)", len(cells))
	}
	if cells[1].InterventionName() != "iv1" {
		t.Fatalf("unnamed branch normalized to %q, want iv1", cells[1].InterventionName())
	}
	if cells[1].Intervention.Compile() == "" {
		t.Fatal("non-empty schedule compiled to nothing")
	}

	var buf bytes.Buffer
	if err := s2.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var reenc bytes.Buffer
	if err := again.Encode(&reenc); err != nil {
		t.Fatal(err)
	}
	if buf.String() != reenc.String() {
		t.Fatalf("v2 round trip changed the spec:\n%s\nvs\n%s", buf.String(), reenc.String())
	}
}

// TestLegacySpecBytesUnchanged: a spec with no intervention axis must
// normalize, encode and aggregate to exactly its historical bytes — no
// interventions, fork_day or intervention keys may appear anywhere.
func TestLegacySpecBytesUnchanged(t *testing.T) {
	spec := testSpec()
	spec.Normalize()
	var enc bytes.Buffer
	if err := spec.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"interventions", "fork_day", "intervention"} {
		if strings.Contains(enc.String(), banned) {
			t.Fatalf("legacy spec JSON leaks %q:\n%s", banned, enc.String())
		}
	}

	f := &fakeHooks{}
	res, err := RunContext(context.Background(), testSpec(), f.hooks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"intervention"`) {
		t.Fatal("legacy sweep result JSON leaks the intervention field")
	}
	if res.SimulatedDays != int64(64*20) {
		t.Fatalf("legacy simulated days = %d, want %d", res.SimulatedDays, 64*20)
	}
}

// TestCheckpointKeySharing: all branches of a (cell, replicate) share
// one checkpoint key; different replicates, scenarios, fork days and
// models do not — and the horizon Days deliberately does not
// participate, so longer re-sweeps reuse warm checkpoints.
func TestCheckpointKeySharing(t *testing.T) {
	spec := forkSpec(3)
	spec.Normalize()
	cells := spec.Cells()
	plKey := cells[0].Placement.Key(cells[0].Population.Key(spec.Seed))
	seed := cells[0].ReplicateSeed(spec.Seed, 0)

	base := cells[0].CheckpointKey(spec, plKey, seed)
	for _, c := range cells[1:] {
		if c.CheckpointKey(spec, plKey, seed) != base {
			t.Fatalf("branch %q does not share the checkpoint key", c.InterventionName())
		}
	}
	if cells[0].CheckpointKey(spec, plKey, cells[0].ReplicateSeed(spec.Seed, 1)) == base {
		t.Fatal("different replicates must not share a checkpoint")
	}
	longer := *spec
	longer.Days = spec.Days * 2
	if cells[0].CheckpointKey(&longer, plKey, seed) != base {
		t.Fatal("a longer horizon must reuse the same checkpoint")
	}
	refork := *spec
	refork.ForkDay = spec.ForkDay + 1
	if cells[0].CheckpointKey(&refork, plKey, seed) == base {
		t.Fatal("a different fork day must not reuse the checkpoint")
	}
	scn := cells[0]
	scn.Scenario.Text = "when day >= 2 { close school for 7 }"
	if scn.CheckpointKey(spec, plKey, seed) == base {
		t.Fatal("a different base scenario must not reuse the checkpoint")
	}
}

// TestCheckpointKeyPinned holds the checkpoint key of one fixed spec, at
// the default kernel and at "event", to literal strings, so that changing
// the default kernel, or any other part of the key, cannot silently move
// the keys of checkpoints already cached on disk.
func TestCheckpointKeyPinned(t *testing.T) {
	for _, c := range []struct{ kernel, want string }{
		{"", "name=a people=100 locations=10 seed=42 | strategy=RR splitloc=false ranks=4 imbalance=0 | model=default/cbf29ce484222325 tx=0 scenario=cbf29ce484222325 seed=9915607376584389164 init=0 mix=0 agg=0 kernel=/0 fork=10"},
		{"event", "name=a people=100 locations=10 seed=42 | strategy=RR splitloc=false ranks=4 imbalance=0 | model=default/cbf29ce484222325 tx=0 scenario=cbf29ce484222325 seed=9915607376584389164 init=0 mix=0 agg=0 kernel=event/0 fork=10"},
	} {
		spec := forkSpec(3)
		spec.Kernel = c.kernel
		spec.Normalize()
		cell := spec.Cells()[0]
		plKey := cell.Placement.Key(cell.Population.Key(spec.Seed))
		if got := cell.CheckpointKey(spec, plKey, cell.ReplicateSeed(spec.Seed, 0)); got != c.want {
			t.Errorf("kernel %q: checkpoint key\n%s\nwant\n%s", c.kernel, got, c.want)
		}
	}
}
