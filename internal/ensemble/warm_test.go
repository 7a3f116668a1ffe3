package ensemble

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/synthpop"
)

// TestWarmContextBuildsEachKeyOnce: a warm pass over a cold cache builds
// every unique population and placement exactly once; a second pass over
// the same caches builds nothing.
func TestWarmContextBuildsEachKeyOnce(t *testing.T) {
	f := &fakeHooks{}
	popCache := NewCache(0, nil)
	plCache := NewCache(0, nil)
	opts := &RunOptions{PopulationCache: popCache, PlacementCache: plCache}
	spec := testSpec() // 2 pops × 2 placements (scenarios don't add placements)

	w, err := WarmContext(context.Background(), spec, f.hooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if w.Populations != 2 || w.Placements != 4 {
		t.Fatalf("warm result = %+v, want 2 populations / 4 placements", w)
	}
	if w.Built() != 4 || f.plBuilds.Load() != 4 || f.popBuilds.Load() != 2 {
		t.Fatalf("cold warm pass built %d placements (%d engine calls), want 4",
			w.Built(), f.plBuilds.Load())
	}

	w2, err := WarmContext(context.Background(), spec, f.hooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Built() != 0 || f.plBuilds.Load() != 4 {
		t.Fatalf("second warm pass built %d, want 0", w2.Built())
	}
	if st := plCache.Stats(); st.Builds != 4 {
		t.Fatalf("placement cache builds = %d, want 4", st.Builds)
	}

	// A real run over the warmed caches builds nothing either.
	res, err := RunContext(context.Background(), spec, f.hooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range res.PlacementBuilds {
		if n != 0 {
			t.Fatalf("post-warm run built placement %q %d times, want 0", key, n)
		}
	}
}

func TestWarmContextPropagatesBuildError(t *testing.T) {
	f := &fakeHooks{}
	h := f.hooks()
	boom := errors.New("partitioner exploded")
	orig := h.BuildPlacement
	h.BuildPlacement = func(pop *synthpop.Population, ps PlacementSpec, seed uint64) (any, error) {
		if ps.Strategy == "GP" {
			return nil, boom
		}
		return orig(pop, ps, seed)
	}
	_, err := WarmContext(context.Background(), testSpec(), h, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the build failure", err)
	}
}

// TestWarmCancelStartsNoBuild: canceling a warm pass while its first
// placement builds returns ctx.Err() and starts no further build.
func TestWarmCancelStartsNoBuild(t *testing.T) {
	f := &fakeHooks{}
	h := f.hooks()
	building, release := make(chan struct{}), make(chan struct{})
	baseBuild := h.BuildPlacement
	h.BuildPlacement = func(pop *synthpop.Population, ps PlacementSpec, seed uint64) (any, error) {
		if f.plBuilds.Load() == 0 {
			close(building)
			<-release
		}
		return baseBuild(pop, ps, seed)
	}
	spec := testSpec() // 2 populations × 2 placements
	spec.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := WarmContext(ctx, spec, h, nil)
		done <- err
	}()
	<-building
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled warm pass never returned")
	}
	if p, pl := f.popBuilds.Load(), f.plBuilds.Load(); p != 1 || pl != 1 {
		t.Fatalf("canceled warm pass built %d populations, %d placements; want 1 and 1", p, pl)
	}
}
