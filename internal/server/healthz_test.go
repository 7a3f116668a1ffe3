package server

import (
	"context"
	"net/http"
	"os"
	"testing"
)

// TestHealthzReportsReadiness: a healthy daemon answers 200 with its
// identity and load counters.
func TestHealthzReportsReadiness(t *testing.T) {
	step := make(chan struct{})
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1, Name: "node-a"}, scriptedRunner(step))
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Instance != "node-a" {
		t.Fatalf("health = %+v, want ok from node-a", h)
	}
	if h.CacheDirWritable != nil {
		t.Fatalf("memory-only daemon reported cache dir writability: %+v", h)
	}

	// One sweep running (blocked on the scripted step) and one queued:
	// the probe must see real load, it is what the gateway balances on.
	if _, err := c.Submit(ctx, testServerSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, testServerSpec()); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ActiveSweeps != 1 || h.QueueDepth != 1 {
		t.Fatalf("health under load = %+v, want 1 active / 1 queued", h)
	}
	close(step)
}

// TestHealthzDegradesWhenCacheDirUnwritable: losing the cache dir flips
// readiness to 503/degraded — the daemon could no longer persist
// placements or results, so a gateway must stop routing to it.
func TestHealthzDegradesWhenCacheDirUnwritable(t *testing.T) {
	dir := t.TempDir()
	step := make(chan struct{})
	close(step)
	_, c := newTestServer(t, Config{Workers: 1, MaxActive: 1, CacheDir: dir}, scriptedRunner(step))
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.CacheDirWritable == nil || !*h.CacheDirWritable {
		t.Fatalf("health = %+v, want ok + writable cache dir", h)
	}

	// Remove the directory out from under the daemon (permission bits
	// would not stop a root test runner; a missing dir stops everyone).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with unwritable cache dir: HTTP %d, want 503", resp.StatusCode)
	}
	h, err = c.Health(ctx)
	if err == nil {
		t.Fatal("client.Health against a degraded daemon must error")
	}
	// The 503 body is still the snapshot: a prober learns the cause.
	if h.Status != "degraded" || h.Error == "" {
		t.Fatalf("degraded health = %+v, want status degraded with the cause", h)
	}
}
