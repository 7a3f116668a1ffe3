package server

import (
	"context"
	"encoding/binary"
	"hash/crc64"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/artifact"
)

// instantRunner completes every cell immediately — persistence tests
// care about what happens AFTER sweeps finish.
func instantRunner() sweepRunner {
	step := make(chan struct{})
	close(step)
	return scriptedRunner(step)
}

// runToDone submits a spec and waits for the job to finish.
func runToDone(t *testing.T, c *client.Client, spec *episim.SweepSpec) string {
	t.Helper()
	ack, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, c, ack.ID); st.State != client.StateDone {
		t.Fatalf("job %s ended %s (%s)", ack.ID, st.State, st.Error)
	}
	return ack.ID
}

func getBody(t *testing.T, c *client.Client, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(c.BaseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestResultSurvivesDaemonRestart is the durability acceptance test: a
// finished sweep's /result — byte for byte — and its status remain
// servable from a brand-new server process over the same cache dir, and
// the id sequence continues instead of colliding with persisted jobs.
// The job's envelope is rewritten as version 1 (CRC-64) before the
// restart, as a daemon older than the version-2 envelope left it, so an
// upgraded daemon must still read it and not delete it.
func TestResultSurvivesDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, MaxActive: 1, CacheDir: dir}

	srv1, err := newWithRunner(cfg, instantRunner())
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	id := runToDone(t, c1, testServerSpec())
	code, body1 := getBody(t, c1, "/v1/sweeps/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("pre-restart result: HTTP %d", code)
	}
	srv1.Close()
	ts1.Close()
	sealAsVersion1(t, filepath.Join(dir, "results"))

	// "Restart": a fresh server over the same directory.
	srv2, err := newWithRunner(cfg, instantRunner())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { srv2.Close(); ts2.Close() }()
	c2 := client.New(ts2.URL)

	code, body2 := getBody(t, c2, "/v1/sweeps/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("post-restart result: HTTP %d: %s", code, body2)
	}
	if body1 != body2 {
		t.Fatal("result bytes changed across restart")
	}
	st, err := c2.Status(context.Background(), id)
	if err != nil || st.State != client.StateDone || st.Cells != 3 {
		t.Fatalf("post-restart status = %+v, %v", st, err)
	}
	// The restored job appears in the listing and the id sequence
	// continues past it — no collision between old and new sweeps.
	jobs, err := c2.List(context.Background())
	if err != nil || len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("post-restart list = %+v, %v", jobs, err)
	}
	id2 := runToDone(t, c2, testServerSpec())
	if id2 == id {
		t.Fatalf("restarted daemon reused job id %s", id)
	}
	// The restored job's event stream replays its terminal event and
	// ends — it must not hang a subscriber.
	events, errc := collectStream(context.Background(), c2, id, 0)
	ev := waitEvent(t, events)
	if ev.Type != "done" {
		t.Fatalf("archived stream event = %q, want done", ev.Type)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	if st := srv2.stats(); st.ResultStore == nil || st.ResultStore.Files != 2 {
		t.Fatalf("result store stats = %+v, want 2 persisted jobs", st.ResultStore)
	}
}

// sealAsVersion1 rewrites the one artifact under dir as a version-1
// envelope: the same bytes less the pad, with version 1, byte 7 zero and
// a CRC-64/ECMA trailer.
func sealAsVersion1(t *testing.T, dir string) {
	t.Helper()
	var paths []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".art" {
			paths = append(paths, path)
		}
		return err
	})
	if len(paths) != 1 {
		t.Fatalf("artifacts under %s = %v, want one", dir, paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != 3 {
		t.Fatalf("stored envelope is version %d, want 3", v)
	}
	// Version 1 has no pad: byte 7 is 0 and the payload length follows the key.
	keyEnd := 12 + int(binary.LittleEndian.Uint32(data[8:]))
	data = append(data[:keyEnd], data[keyEnd+int(data[7]):]...)
	binary.LittleEndian.PutUint16(data[4:], 1)
	data[7] = 0
	body := data[:len(data)-8]
	binary.LittleEndian.PutUint64(data[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionEvictsToDiskButStaysServable is the regression test for
// the bounded index: with Retain=1, old finished sweeps leave the
// memory index (list stays short and ordered) yet their status AND
// result remain directly addressable — rehydrated from disk.
func TestRetentionEvictsToDiskButStaysServable(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{Workers: 1, MaxActive: 1, CacheDir: dir, Retain: 1}, instantRunner())

	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, runToDone(t, c, testServerSpec()))
	}

	jobs, err := c.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != ids[2] {
		t.Fatalf("list = %+v, want only the newest finished job %s", jobs, ids[2])
	}
	if st := srv.stats(); st.SweepsEvicted != 2 {
		t.Fatalf("evicted = %d, want 2", st.SweepsEvicted)
	}

	// Evicted-but-on-disk jobs still answer by id.
	for _, id := range ids[:2] {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status of evicted job %s: %v", id, err)
		}
		if st.State != client.StateDone || st.Cells != 3 {
			t.Fatalf("evicted job %s status = %+v", id, st)
		}
		res, err := c.Result(context.Background(), id)
		if err != nil {
			t.Fatalf("result of evicted job %s: %v", id, err)
		}
		if len(res.Cells) != 3 {
			t.Fatalf("evicted job %s result has %d cells", id, len(res.Cells))
		}
	}

	// Cancel on an evicted (terminal) job conflicts instead of crashing.
	resp, err := http.Post(c.BaseURL+"/v1/sweeps/"+ids[0]+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel evicted job: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestQueuedCancelPersisted: canceling a job that never ran still
// reaches the disk store — after a restart its canceled status is
// servable (and /result is a permanent 410, not a 404).
func TestQueuedCancelPersisted(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, MaxActive: 1, CacheDir: dir}
	step := make(chan struct{}) // never stepped: the running job blocks
	srv1, err := newWithRunner(cfg, scriptedRunner(step))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	ctx := context.Background()

	blocker, err := c1.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, blocker.ID, client.StateRunning)
	queued, err := c1.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, c1, queued.ID); st.State != client.StateCanceled {
		t.Fatalf("queued job ended %s, want canceled", st.State)
	}
	srv1.Close()
	ts1.Close()

	srv2, err := newWithRunner(cfg, instantRunner())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { srv2.Close(); ts2.Close() }()
	c2 := client.New(ts2.URL)
	st, err := c2.Status(ctx, queued.ID)
	if err != nil || st.State != client.StateCanceled {
		t.Fatalf("post-restart status of queued-canceled job = %+v, %v", st, err)
	}
	if code, _ := getBody(t, c2, "/v1/sweeps/"+queued.ID+"/result"); code != http.StatusGone {
		t.Fatalf("result of canceled job: HTTP %d, want 410", code)
	}
}

// TestRetentionTTLEvicts: finished jobs older than ResultTTL leave the
// memory index on the next store pass.
func TestRetentionTTLEvicts(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{Workers: 1, MaxActive: 1, CacheDir: dir, ResultTTL: time.Hour}, instantRunner())

	id := runToDone(t, c, testServerSpec())
	// Jump the store's clock two hours ahead; the next list() evicts.
	srv.store.mu.Lock()
	srv.store.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	srv.store.mu.Unlock()

	jobs, err := c.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("list after TTL = %+v, want empty", jobs)
	}
	// Still on disk.
	if st, err := c.Status(context.Background(), id); err != nil || st.State != client.StateDone {
		t.Fatalf("TTL-evicted status = %+v, %v", st, err)
	}
}

// TestDiskGCBoundsEachStore runs one disk GC pass over a daemon with all
// three bounds set, after a fork sweep left two placements, checkpoints
// and a result record on disk. Only the checkpoints are aged past their
// TTL, so each store's outcome shows that its own bound acted on it: the
// placement store is pruned to its byte bound, the checkpoint store is
// emptied, and the fresh result record survives.
func TestDiskGCBoundsEachStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, MaxActive: 1, CacheDir: dir,
		StoreMaxBytes: 1, ResultTTL: 24 * time.Hour, CheckpointTTL: time.Hour}
	srv, c := newTestServer(t, cfg, episim.RunSweepContext)
	spec := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "p", People: 200, Locations: 20}},
		Placements:  []episim.SweepPlacement{{Strategy: "RR", Ranks: 2}, {Strategy: "RR", Ranks: 3}},
		Interventions: []episim.SweepIntervention{
			{Name: "baseline"},
			{Name: "closure", Schedule: episim.InterventionSchedule{
				Closures: []episim.InterventionClosure{{LocType: "school", Day: 4, Days: 2}},
			}},
		},
		ForkDay:           3,
		Replicates:        1,
		Days:              6,
		Seed:              3,
		InitialInfections: 3,
	}
	id := runToDone(t, c, spec)

	if st := srv.cache.StoreStats("placement"); st.Files != 2 {
		t.Fatalf("placement store before GC = %+v, want 2 files", st)
	}
	ckpts := filepath.Join(dir, "checkpoints")
	old := time.Now().Add(-2 * time.Hour)
	aged := 0
	if err := filepath.WalkDir(ckpts, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		aged++
		return os.Chtimes(path, old, old)
	}); err != nil || aged == 0 {
		t.Fatalf("aged %d checkpoint files (%v), want at least 1", aged, err)
	}

	srv.runGC()

	if st := srv.cache.StoreStats("placement"); st.Bytes > cfg.StoreMaxBytes || st.GCFiles < 1 {
		t.Fatalf("placement store after GC = %+v, want at most %d bytes and a pruned artifact", st, cfg.StoreMaxBytes)
	}
	if st := srv.cache.StoreStats("checkpoint"); st.Files != 0 || st.GCFiles != int64(aged) {
		t.Fatalf("checkpoint store after GC = %+v, want all %d aged files expired", st, aged)
	}
	if st := srv.store.results.Stats(); st.Files != 1 || st.GCFiles != 0 {
		t.Fatalf("result store after GC = %+v, want the one record kept", st)
	}
	if res, err := c.Result(context.Background(), id); err != nil || len(res.Cells) != 4 {
		t.Fatalf("result after GC: %v, want 4 cells", err)
	}
}

// TestRetentionWithoutDiskIsBounded: a memory-only daemon with Retain
// still bounds its index; evicted jobs are gone (404), which is the
// documented trade.
func TestRetentionWithoutDiskIsBounded(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActive: 1, Retain: 2}, instantRunner())
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, runToDone(t, c, testServerSpec()))
	}
	jobs, err := c.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != ids[2] || jobs[1].ID != ids[3] {
		t.Fatalf("list = %+v, want the 2 newest in order", jobs)
	}
	if _, err := c.Status(context.Background(), ids[0]); err == nil {
		t.Fatal("evicted memory-only job must 404")
	}
}

// TestRetiredProfileKindTolerated: a result store written by an older
// daemon still holds a kind-4 pprof capture. A restart restores the jobs
// beside it, and the TTL GC still expires it.
func TestRetiredProfileKindTolerated(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, MaxActive: 1, CacheDir: dir}
	srv1, err := newWithRunner(cfg, instantRunner())
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	id := runToDone(t, client.New(ts1.URL), testServerSpec())
	srv1.Close()
	ts1.Close()

	results := filepath.Join(dir, "results")
	old, err := artifact.NewStore(results)
	if err != nil {
		t.Fatal(err)
	}
	const profile = "prof-20250101t000000-001-cpu"
	if err := old.Put(artifact.Kind(4), profile, []byte("pprof bytes")); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, cfg, instantRunner())
	if st, err := c2.Status(context.Background(), id); err != nil || st.State != client.StateDone {
		t.Fatalf("restored status = %+v, %v", st, err)
	}
	if jobs, err := c2.List(context.Background()); err != nil || len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("restored list = %+v, %v", jobs, err)
	}

	// Age every artifact past the TTL; the profile expires with the job.
	past := time.Now().Add(-2 * time.Hour)
	err = filepath.WalkDir(results, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Chtimes(path, past, past)
	})
	if err != nil {
		t.Fatal(err)
	}
	if files, _, err := srv2.store.results.ExpireOlderThan(time.Hour); err != nil || files != 2 {
		t.Fatalf("ExpireOlderThan = %d files, %v; want the job and the profile", files, err)
	}
	keys, err := srv2.store.results.Keys()
	if err != nil || len(keys) != 0 {
		t.Fatalf("keys after expiry = %+v, %v; want none", keys, err)
	}
}
