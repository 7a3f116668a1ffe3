package episim

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
)

// Placement and its artifact form carry the same exported fields, in the
// same order and of the same types, so the explicit copies between them
// (artifactcache.go) lose nothing.
func TestPlacementFieldsMatchArtifact(t *testing.T) {
	exported := func(typ reflect.Type) (fields []reflect.StructField) {
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f)
			}
		}
		return fields
	}
	got, want := exported(reflect.TypeOf(Placement{})), exported(reflect.TypeOf(artifact.Placement{}))
	if len(got) != len(want) {
		t.Fatalf("Placement has %d exported fields, artifact.Placement %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Type != want[i].Type {
			t.Fatalf("field %d: Placement's is %s %v, artifact.Placement's %s %v",
				i, got[i].Name, got[i].Type, want[i].Name, want[i].Type)
		}
	}
}

// The placement cache charges a placement for the plan its first run
// builds, from counts alone: at sim-sparse's shape (50,000 persons, RR×16)
// the charge is within a quarter of the heap the plan takes, and it is the
// same before and after the plan is built.
func TestPlacementChargesPlan(t *testing.T) {
	pl, err := BuildPlacement(Generate("sim-sparse", 50000, 12500, 7), PlacementOptions{Strategy: RR, Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	charge := placementBytes(pl)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(pl, SimConfig{Days: 1, Seed: 7, InitialInfections: 250}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pl)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	est := float64(charge - populationBytes(pl.Pop) - int64(4*(len(pl.PersonRank)+len(pl.LocationRank))))
	t.Logf("plan: %.0f bytes on the heap, %.0f charged (%.1f bytes per visit)", heap, est, heap/float64(pl.Pop.NumVisits()))
	if est < 0.75*heap || est > 1.25*heap {
		t.Errorf("the plan's charge %.0f is not within 25%% of its %.0f heap bytes", est, heap)
	}
	if placementBytes(pl) != charge {
		t.Errorf("the placement's charge moved from %d to %d when its plan was built", charge, placementBytes(pl))
	}
}

// A placement reloaded from a cache dir views its visit, offset and rank
// blocks inside the file's read buffer, which it keeps alive whole, raw
// person and location records included. The heap that keeps still fits
// the charge for a placement less its plan, which the reload has not
// built, at few and at many persons per location, split or not.
func TestReloadedPlacementFitsCharge(t *testing.T) {
	for _, tc := range []struct {
		persons, locations int
		split              bool
	}{
		{30000, 60000, false}, {30000, 60000, true},
		{30000, 30000, false}, {30000, 30000, true},
		{30000, 7500, false}, {30000, 7500, true},
	} {
		pl, err := BuildPlacement(Generate("reload", tc.persons, tc.locations, 7), PlacementOptions{Strategy: RR, SplitLoc: tc.split, Ranks: 16})
		if err != nil {
			t.Fatal(err)
		}
		store, err := artifact.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tier := artifactTier{store, artifactKinds[kindPlacement]}
		if err := tier.Store("pl", pl); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		v, err := tier.Load("pl")
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		back := v.(*Placement)
		runtime.KeepAlive(back)
		heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		charge := placementBytes(back) - planBytes(back.Pop)
		t.Logf("%d persons, %d locations, split %v: %d bytes on the heap, %d charged without the plan",
			tc.persons, tc.locations, tc.split, heap, charge)
		if heap > charge {
			t.Errorf("%d persons, %d locations, split %v: a reloaded placement keeps %d heap bytes, more than the %d it is charged",
				tc.persons, tc.locations, tc.split, heap, charge)
		}
		if !reflect.DeepEqual(back.PersonRank, pl.PersonRank) || !reflect.DeepEqual(back.Pop.Visits, pl.Pop.Visits) {
			t.Error("the reloaded placement differs from the stored one")
		}
	}
}

// Two runs at once on one placement share the plan the first of them
// builds, and find what they find one after the other.
func TestSharedPlanRace(t *testing.T) {
	pl, err := BuildPlacement(smallPop(t), PlacementOptions{Strategy: GP, SplitLoc: true, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []SimConfig{
		{Days: 12, Seed: 3, InitialInfections: 10, Kernel: core.KernelAuto, Mixing: 0.3},
		{Days: 12, Seed: 4, InitialInfections: 10, Parallel: true, AggBufferSize: 16},
	}
	got := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(pl, cfg)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := Run(pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("run %d: concurrent and sequential runs on one placement differ", i)
		}
	}
}
