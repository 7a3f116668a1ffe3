package episim_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	episim "repro"
	"repro/internal/artifact"
)

// cacheDirSpec is a small grid that exercises both strategies and the
// splitLoc preprocessing, so the placement artifacts carry split stats
// and partition quality through the codec.
func cacheDirSpec() *episim.SweepSpec {
	s := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "cachetown", People: 500, Locations: 50}},
		Placements: []episim.SweepPlacement{
			{Strategy: "RR", Ranks: 4},
			{Strategy: "GP", SplitLoc: true, Ranks: 4},
		},
		Scenarios:         []episim.SweepScenario{{Name: "baseline"}},
		Replicates:        3,
		Days:              10,
		Seed:              99,
		InitialInfections: 5,
	}
	s.Normalize()
	return s
}

func runWithDir(t *testing.T, dir string) (*episim.SweepResult, *episim.SweepCache, []byte) {
	t.Helper()
	cache, err := episim.NewSweepCacheDir(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := episim.RunSweepContext(context.Background(), cacheDirSpec(), &episim.SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return res, cache, js.Bytes()
}

// TestSweepCacheDirWarmRun is the acceptance test for the persistent
// placement cache: a second process (modeled as a fresh cache over the
// same directory) performs ZERO placement builds and produces
// byte-identical aggregate JSON to the cold run.
func TestSweepCacheDirWarmRun(t *testing.T) {
	dir := t.TempDir()

	cold, coldCache, coldJSON := runWithDir(t, dir)
	for key, n := range cold.PlacementBuilds {
		if n != 1 {
			t.Fatalf("cold run built %q %d times, want 1", key, n)
		}
	}
	if st := coldCache.PlacementStats(); st.Builds != 2 || st.DiskWrites != 2 {
		t.Fatalf("cold placement cache stats = %+v, want 2 builds written through", st)
	}
	pop, pl := coldCache.StoreStats("population"), coldCache.StoreStats("placement")
	if pop == nil || pl == nil || pop.Files != 1 || pl.Files != 2 {
		t.Fatalf("store stats = %+v / %+v, want 1 population + 2 placement artifacts", pop, pl)
	}

	warm, warmCache, warmJSON := runWithDir(t, dir)
	for key, n := range warm.PopulationBuilds {
		if n != 0 {
			t.Fatalf("warm run generated population %q %d times, want 0", key, n)
		}
	}
	for key, n := range warm.PlacementBuilds {
		if n != 0 {
			t.Fatalf("warm run built placement %q %d times, want 0", key, n)
		}
	}
	st := warmCache.PlacementStats()
	if st.Builds != 0 || st.DiskHits != 2 {
		t.Fatalf("warm placement cache stats = %+v, want 0 builds / 2 disk hits", st)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("warm run JSON differs from cold run JSON")
	}
}

// TestSweepCacheDirWarmRunLoadsNoPopulation: a placement served from
// disk embeds the population it runs on, so a fresh cache over a filled
// directory loads no population at all, yet still tallies the run's
// population key as a zero-build entry. With the placement files gone,
// the population is read from disk once and each placement built once.
func TestSweepCacheDirWarmRunLoadsNoPopulation(t *testing.T) {
	dir := t.TempDir()
	cold, _, coldJSON := runWithDir(t, dir)
	if len(cold.PopulationBuilds) != 1 {
		t.Fatalf("cold population builds = %v, want one key", cold.PopulationBuilds)
	}
	warmPops := map[string]int{}
	for key := range cold.PopulationBuilds {
		warmPops[key] = 0
	}
	noPopulationLookup := func(what string, c *episim.SweepCache) {
		t.Helper()
		if st := c.PopulationStats(); st.Hits != 0 || st.Misses != 0 || st.DiskHits != 0 || st.DiskMisses != 0 || st.Builds != 0 {
			t.Fatalf("%s: population cache stats = %+v, want no lookup", what, st)
		}
		if st := c.PlacementStats(); st.Builds != 0 || st.DiskHits != 2 {
			t.Fatalf("%s: placement cache stats = %+v, want 0 builds / 2 disk hits", what, st)
		}
	}

	cache, err := episim.NewSweepCacheDir(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := episim.WarmSweep(context.Background(), cacheDirSpec(), &episim.SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if w.Built() != 0 || w.Populations != 1 || !reflect.DeepEqual(w.PopulationBuilds, warmPops) {
		t.Fatalf("warm pass = %+v, want 0 builds and population builds %v", w, warmPops)
	}
	noPopulationLookup("warm pass", cache)

	warm, cache, warmJSON := runWithDir(t, dir)
	if !reflect.DeepEqual(warm.PopulationBuilds, warmPops) {
		t.Fatalf("warm run population builds = %v, want %v", warm.PopulationBuilds, warmPops)
	}
	for key, n := range warm.PlacementBuilds {
		if n != 0 {
			t.Fatalf("warm run built placement %q %d times, want 0", key, n)
		}
	}
	noPopulationLookup("warm run", cache)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("warm run JSON differs from cold run JSON")
	}

	if err := os.RemoveAll(filepath.Join(dir, "placements")); err != nil {
		t.Fatal(err)
	}
	rebuilt, cache, rebuiltJSON := runWithDir(t, dir)
	if st := cache.PopulationStats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("population cache stats = %+v, want 1 disk hit and no build", st)
	}
	if !reflect.DeepEqual(rebuilt.PopulationBuilds, warmPops) {
		t.Fatalf("population builds = %v, want %v", rebuilt.PopulationBuilds, warmPops)
	}
	if st := cache.PlacementStats(); st.Builds != 2 || len(rebuilt.PlacementBuilds) != 2 {
		t.Fatalf("placement cache stats = %+v, builds %v, want each of 2 placements built", st, rebuilt.PlacementBuilds)
	}
	for key, n := range rebuilt.PlacementBuilds {
		if n != 1 {
			t.Fatalf("placement %q built %d times, want 1", key, n)
		}
	}
	if !bytes.Equal(coldJSON, rebuiltJSON) {
		t.Fatal("rebuilt run JSON differs from cold run JSON")
	}
}

// TestSweepCacheDirCorruptArtifactRebuilds: damage one placement
// artifact on disk; the next run treats it as a miss, rebuilds, rewrites
// it, and still produces identical output.
func TestSweepCacheDirCorruptArtifactRebuilds(t *testing.T) {
	dir := t.TempDir()
	_, _, coldJSON := runWithDir(t, dir)

	// Truncate every placement artifact (simulating torn writes).
	var damaged int
	err := filepath.Walk(filepath.Join(dir, "placements"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || filepath.Ext(path) != ".art" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		damaged++
		return os.WriteFile(path, data[:len(data)*2/3], 0o644)
	})
	if err != nil || damaged != 2 {
		t.Fatalf("damaged %d artifacts (%v), want 2", damaged, err)
	}

	res, cache, js := runWithDir(t, dir)
	for key, n := range res.PlacementBuilds {
		if n != 1 {
			t.Fatalf("post-corruption run built %q %d times, want 1 (rebuild)", key, n)
		}
	}
	st := cache.PlacementStats()
	if st.DiskErrors != 2 || st.Builds != 2 || st.DiskWrites != 2 {
		t.Fatalf("stats = %+v, want 2 disk errors, 2 rebuilds, 2 re-writes", st)
	}
	if !bytes.Equal(coldJSON, js) {
		t.Fatal("rebuilt run JSON differs")
	}

	// And the rewrite healed the store: one more run is fully warm.
	res2, cache2, _ := runWithDir(t, dir)
	if cache2.PlacementStats().Builds != 0 {
		t.Fatalf("healed run still built placements: %+v", res2.PlacementBuilds)
	}
}

// TestRetiredCheckpointKindRebuilds: a checkpoint file sealed as a retired
// kind — 5, whose phase statistics carried four locality classes, or 6,
// whose day reports and effects were binary fields — under a live
// checkpoint key is a counted disk miss. The sweep rebuilds the prefix,
// overwrites the file in the current kind and emits byte-identical output.
// The stale file carries a payload the current codec decodes cleanly, so
// only the kind check stands between it and a wrong restore.
func TestRetiredCheckpointKindRebuilds(t *testing.T) {
	spec := &episim.SweepSpec{
		Populations:       []episim.SweepPopulation{{Name: "forktown", People: 1000, Locations: 200}},
		Placements:        []episim.SweepPlacement{{Strategy: "RR", Ranks: 3}},
		Interventions:     forkBranches(),
		ForkDay:           10,
		Replicates:        1,
		Days:              14,
		Seed:              5,
		InitialInfections: 5,
	}
	dir := t.TempDir()
	run := func() (*episim.SweepResult, *episim.SweepCache, []byte) {
		cache, err := episim.NewSweepCacheDir(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := episim.RunSweepContext(t.Context(), spec, &episim.SweepOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return res, cache, js.Bytes()
	}
	_, _, coldJSON := run()

	store, err := artifact.NewStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys()
	if err != nil || len(keys) != 1 || keys[0].Kind != artifact.KindCheckpoint {
		t.Fatalf("checkpoint store = %+v (%v), want one current-kind checkpoint", keys, err)
	}
	key := keys[0].Key
	payload, err := store.Get(artifact.KindCheckpoint, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []artifact.Kind{5, 6} {
		if err := store.Put(retired, key, payload); err != nil {
			t.Fatal(err)
		}
		res, cache, js := run()
		if st := cache.CheckpointStats(); st.DiskHits != 0 || st.DiskMisses != 1 || st.DiskErrors != 1 ||
			st.Builds != 1 || st.DiskWrites != 1 {
			t.Fatalf("kind %d: checkpoint cache stats = %+v, want 1 disk miss counted as an error, 1 rebuild, 1 re-write", retired, st)
		}
		if res.CheckpointBuilds[key] != 1 {
			t.Fatalf("kind %d: checkpoint builds = %v, want %q rebuilt once", retired, res.CheckpointBuilds, key)
		}
		if !bytes.Equal(coldJSON, js) {
			t.Fatalf("run over a kind-%d checkpoint emitted different JSON", retired)
		}
		if keys, err := store.Keys(); err != nil || len(keys) != 1 || keys[0].Kind != artifact.KindCheckpoint {
			t.Fatalf("kind %d: checkpoint store after rebuild = %+v (%v), want the file overwritten in the current kind", retired, keys, err)
		}
	}
}

// TestWarmSweepPopulatesCacheDir: `episim sweep -warm` semantics — a warm pass
// builds the artifacts, and a later real run builds nothing.
func TestWarmSweepPopulatesCacheDir(t *testing.T) {
	dir := t.TempDir()
	spec := cacheDirSpec()

	w, err := episim.WarmSweep(context.Background(), spec, &episim.SweepOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if w.Placements != 2 || w.Built() != 2 {
		t.Fatalf("warm pass = %+v, want 2 placements built", w)
	}

	// Re-warming against the same directory builds nothing.
	w2, err := episim.WarmSweep(context.Background(), spec, &episim.SweepOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Built() != 0 {
		t.Fatalf("second warm pass built %d, want 0", w2.Built())
	}

	// A real run over the warmed directory: zero builds, via the
	// SweepOptions.CacheDir path rather than an explicit cache.
	res, err := episim.RunSweepContext(context.Background(), spec, &episim.SweepOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range res.PlacementBuilds {
		if n != 0 {
			t.Fatalf("post-warm run built %q %d times, want 0", key, n)
		}
	}
}
