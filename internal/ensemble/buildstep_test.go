package ensemble

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/synthpop"
)

func spanNames(tl *obs.Timeline) []string {
	spans, _ := tl.Snapshot()
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestBuildStepNegativeMemo: within one run a failing key is attempted
// once; every later user of the key fails fast with the same wrapped
// error, while a fresh run over the same shared cache retries.
func TestBuildStepNegativeMemo(t *testing.T) {
	shared := NewCache(0, nil)
	opts := &RunOptions{PopulationCache: shared}
	var attempts atomic.Int64
	h := (&fakeHooks{}).hooks()
	h.GeneratePopulation = func(PopulationSpec, uint64) (*synthpop.Population, error) {
		attempts.Add(1)
		return nil, errors.New("boom")
	}
	spec := &Spec{Seed: 7}
	pop, pl := PopulationSpec{Name: "a", People: 10, Locations: 2}, PlacementSpec{Strategy: "RR", Ranks: 2}

	b := newBuildSteps(context.Background(), opts)
	for sibling := 0; sibling < 3; sibling++ {
		_, _, err := b.place(h, spec, pop, pl)
		if want := "ensemble: population " + pop.Label() + ": boom"; err == nil || err.Error() != want {
			t.Fatalf("sibling %d: err = %v, want %q", sibling, err, want)
		}
	}
	if attempts.Load() != 1 {
		t.Fatalf("failing population attempted %d times in one run, want 1", attempts.Load())
	}
	if len(b.population.builds) != 0 || len(b.placement.builds) != 0 {
		t.Fatalf("failed key entered the build tallies: %v / %v", b.population.builds, b.placement.builds)
	}
	if _, _, err := newBuildSteps(context.Background(), opts).place(h, spec, pop, pl); err == nil || attempts.Load() != 2 {
		t.Fatalf("next run: err = %v after %d attempts, want a retry (2 attempts)", err, attempts.Load())
	}
}

// TestBuildStepCanceledWaitIsNotAFailure: a run canceled while it waits
// on another run's in-flight build gets errCanceled, and neither its
// negative memo nor its build tally records the key.
func TestBuildStepCanceledWaitIsNotAFailure(t *testing.T) {
	shared := NewCache(0, nil)
	opts := &RunOptions{PlacementCache: shared}
	building, release := make(chan struct{}), make(chan struct{})
	owner := newBuildSteps(context.Background(), opts)
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := owner.get(&owner.placement, "k", "pl", "pl", func() (any, error) {
			close(building)
			<-release
			return "placement", nil
		})
		ownerDone <- err
	}()
	<-building

	ctx, cancel := context.WithCancel(context.Background())
	waiter := newBuildSteps(ctx, opts)
	time.AfterFunc(5*time.Millisecond, cancel)
	_, _, err := waiter.get(&waiter.placement, "k", "pl", "pl", func() (any, error) {
		t.Error("waiter ran the build it should only have waited on")
		return nil, nil
	})
	if err != errCanceled {
		t.Fatalf("canceled wait returned %v, want errCanceled", err)
	}
	if len(waiter.failed) != 0 || len(waiter.placement.builds) != 0 {
		t.Fatalf("canceled wait was recorded: failed=%v builds=%v", waiter.failed, waiter.placement.builds)
	}
	close(release)
	if err := <-ownerDone; err != nil || owner.placement.builds["k"] != 1 {
		t.Fatalf("owner: err=%v builds=%v, want its one build to finish", err, owner.placement.builds)
	}
}

// slowTier is a disk tier whose loads take a noticeable time.
type slowTier struct{ *fakeTier }

func (t slowTier) Load(key string) (any, error) {
	time.Sleep(2 * time.Millisecond)
	return t.fakeTier.Load(key)
}

// TestBuildStepSpansAndTally: a build is traced "<kind>_build" and
// tallied 1; a disk-tier hit is tallied 0 (the run needed the key, no
// tier failed to supply it) with no build span — a "<kind>_load" span
// only when the wait was at least a millisecond.
func TestBuildStepSpansAndTally(t *testing.T) {
	build := func() (any, error) { return "v", nil }
	noBuild := func() (any, error) {
		t.Error("disk-tier hit ran the build")
		return nil, nil
	}
	tier := newFakeTier()

	cold := obs.NewTimeline("cold")
	b := newBuildSteps(context.Background(), &RunOptions{Trace: cold, CheckpointCache: NewCache(0, nil).WithDisk(tier)})
	if _, built, err := b.get(&b.checkpoint, "k", "c r0", "c r0 day 5", build); err != nil || !built {
		t.Fatalf("cold get: built=%v err=%v", built, err)
	}
	if got := spanNames(cold); len(got) != 1 || got[0] != "checkpoint_build" || b.checkpoint.builds["k"] != 1 {
		t.Fatalf("cold: spans=%v builds=%v, want one checkpoint_build and a tally of 1", got, b.checkpoint.builds)
	}

	fast := obs.NewTimeline("fast")
	b = newBuildSteps(context.Background(), &RunOptions{Trace: fast, CheckpointCache: NewCache(0, nil).WithDisk(tier)})
	if _, built, err := b.get(&b.checkpoint, "k", "c r0", "c r0 day 5", noBuild); err != nil || built {
		t.Fatalf("warm get: built=%v err=%v", built, err)
	}
	if n, ok := b.checkpoint.builds["k"]; !ok || n != 0 {
		t.Fatalf("disk-tier hit tallied %v (present=%v), want a 0 entry", n, ok)
	}
	for _, name := range spanNames(fast) {
		if name == "checkpoint_build" {
			t.Fatalf("disk-tier hit recorded a build span: %v", spanNames(fast))
		}
	}

	slow := obs.NewTimeline("slow")
	b = newBuildSteps(context.Background(), &RunOptions{Trace: slow, CheckpointCache: NewCache(0, nil).WithDisk(slowTier{tier})})
	if _, built, err := b.get(&b.checkpoint, "k", "c r0", "c r0 day 5", noBuild); err != nil || built {
		t.Fatalf("slow warm get: built=%v err=%v", built, err)
	}
	spans, _ := slow.Snapshot()
	if len(spans) != 1 || spans[0].Name != "checkpoint_load" || spans[0].Detail != "c r0 day 5" {
		t.Fatalf("slow disk load traced %+v, want one checkpoint_load labeled with the span label", spans)
	}
}
