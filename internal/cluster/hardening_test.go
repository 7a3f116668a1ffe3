package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
)

// stubBackend fakes the episimd HTTP surface with controllable load and
// job state, so spill and admission decisions can be tested
// deterministically (a real engine drains its queue on its own clock).
type stubBackend struct {
	name       string
	ts         *httptest.Server
	depth      atomic.Int64 // queue depth reported by /healthz
	jobState   atomic.Value // client.JobState every job reports
	failSubmit atomic.Bool  // refuse submissions with a 500
	degraded   atomic.Bool  // answer /healthz with a named 503
	accepted   atomic.Int64
}

func newStubBackend(t *testing.T, name string) *stubBackend {
	t.Helper()
	sb := &stubBackend{name: name}
	sb.jobState.Store(client.StateRunning)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if sb.degraded.Load() {
			writeJSON(w, http.StatusServiceUnavailable, client.HealthReply{
				Status: "degraded", Instance: sb.name, Error: "cache dir gone",
			})
			return
		}
		writeJSON(w, http.StatusOK, client.HealthReply{
			Status: "ok", Instance: sb.name, QueueDepth: int(sb.depth.Load()),
		})
	})
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, []client.JobStatus{
			{ID: "sw-000007", State: sb.jobState.Load().(client.JobState)},
		})
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		if sb.failSubmit.Load() {
			writeError(w, http.StatusInternalServerError, "stub refusing submissions")
			return
		}
		n := sb.accepted.Add(1)
		writeJSON(w, http.StatusAccepted, client.SubmitReply{
			ID: fmt.Sprintf("sw-%06d", n), Cells: 1, Simulations: 1,
		})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, client.JobStatus{
			ID: r.PathValue("id"), State: sb.jobState.Load().(client.JobState),
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, client.StatsReply{})
	})
	sb.ts = httptest.NewServer(mux)
	t.Cleanup(sb.ts.Close)
	return sb
}

// bootStubs builds a gateway over stub backends.
func bootStubs(t *testing.T, cfg Config, names ...string) (*Gateway, string, map[string]*stubBackend) {
	t.Helper()
	stubs := map[string]*stubBackend{}
	for _, n := range names {
		sb := newStubBackend(t, n)
		stubs[n] = sb
		cfg.Backends = append(cfg.Backends, sb.ts.URL)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		gw.Close()
		gts.Close()
	})
	return gw, gts.URL, stubs
}

// waitDepth blocks until the gateway's estimate for backend `name`
// reaches want (a probe round must observe the stub's depth).
func waitDepth(t *testing.T, gw *Gateway, name string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, b := range gw.backends {
			if b.identity() == name && b.queueDepthEstimate() == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never observed depth %d for %s", want, name)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postSpec(t *testing.T, gwURL string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, gwURL+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestSpillToRunnerUp is the load-aware half of the acceptance
// criterion: with the HRW owner's queue past -spill-queue-depth, a
// submission routes to the runner-up even though the owner is healthy,
// and episim_gw_spilled_total accounts for it.
func TestSpillToRunnerUp(t *testing.T) {
	gw, gwURL, stubs := bootStubs(t,
		Config{ProbeInterval: 30 * time.Millisecond, SpillQueueDepth: 2},
		"alpha", "beta")
	body := specBody(t, testSpec())
	key := DominantPlacementKey(testSpec())
	order := gw.rankFor(key)
	owner, runnerUp := order[0].identity(), order[1].identity()

	// Saturate the owner: depth 5 > spill bound 2; runner-up idle.
	stubs[owner].depth.Store(5)
	waitDepth(t, gw, owner, 5)

	resp := postSpec(t, gwURL, body, nil)
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(backendHeader); got != runnerUp {
		t.Fatalf("saturated owner %s: routed to %s, want runner-up %s", owner, got, runnerUp)
	}
	if n := gw.spilled.Load(); n != 1 {
		t.Fatalf("spilled = %d, want 1", n)
	}
	code, metrics := getRaw(t, gwURL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(metrics), "episim_gw_spilled_total 1") {
		t.Fatalf("metrics missing episim_gw_spilled_total 1 (HTTP %d):\n%s", code, metrics)
	}

	// Whole fleet saturated: affinity wins — stay on the owner, no spill.
	stubs[runnerUp].depth.Store(7)
	waitDepth(t, gw, runnerUp, 7)
	resp = postSpec(t, gwURL, body, nil)
	if got := resp.Header.Get(backendHeader); got != owner {
		t.Fatalf("fleet saturated: routed to %s, want owner %s", got, owner)
	}
	if n := gw.spilled.Load(); n != 1 {
		t.Fatalf("fleet-saturated submit spilled: %d", n)
	}

	// Owner drains: back to pure affinity.
	stubs[owner].depth.Store(0)
	waitDepth(t, gw, owner, 0)
	resp = postSpec(t, gwURL, body, nil)
	if got := resp.Header.Get(backendHeader); got != owner {
		t.Fatalf("drained owner: routed to %s, want %s", got, owner)
	}
	if n := gw.spilled.Load(); n != 1 {
		t.Fatalf("drained-owner submit spilled: %d", n)
	}
}

// TestAdmissionRateLimit: the per-client token bucket answers 429 with
// Retry-After once the burst is spent, keyed by X-Episim-Client, and the
// throttle shows up in stats and metrics.
func TestAdmissionRateLimit(t *testing.T) {
	gw, gwURL, _ := bootStubs(t,
		Config{ProbeInterval: time.Hour, SubmitRate: 0.01, SubmitBurst: 1},
		"alpha", "beta")
	body := specBody(t, testSpec())

	first := postSpec(t, gwURL, body, map[string]string{"X-Episim-Client": "tenant-a"})
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", first.StatusCode)
	}
	second := postSpec(t, gwURL, body, map[string]string{"X-Episim-Client": "tenant-a"})
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: HTTP %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" || second.Header.Get("X-Episim-Retry-After-Ms") == "" {
		t.Fatalf("429 missing Retry-After headers: %+v", second.Header)
	}
	// A different client has its own bucket.
	other := postSpec(t, gwURL, body, map[string]string{"X-Episim-Client": "tenant-b"})
	if other.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-b submit: HTTP %d, want 202", other.StatusCode)
	}
	if n := gw.throttledRate.Load(); n != 1 {
		t.Fatalf("throttledRate = %d, want 1", n)
	}
	code, metrics := getRaw(t, gwURL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(metrics), `episim_gw_throttled_total{reason="rate"} 1`) {
		t.Fatalf("metrics missing rate throttle counter:\n%s", metrics)
	}
}

// TestClientHonorsRetryAfter: repro/client.Submit waits the advised
// interval on 429 and retries — the burst-then-drip pattern succeeds
// without the caller writing any backoff.
func TestClientHonorsRetryAfter(t *testing.T) {
	// Rate 2/s, burst 1: a token refills every 500ms, far longer than a
	// loopback round trip even on a loaded CI runner, so the second
	// back-to-back submission is deterministically throttled.
	gw, gwURL, _ := bootStubs(t,
		Config{ProbeInterval: time.Hour, SubmitRate: 2, SubmitBurst: 1},
		"alpha", "beta")
	c := client.New(gwURL)
	c.ClientID = "tenant-honor"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 3; i++ {
		if _, err := c.Submit(ctx, testSpec()); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if gw.throttledRate.Load() == 0 {
		t.Fatal("no submission was throttled; retry honoring untested")
	}
}

// TestAdmissionInflightCap: the in-flight cap rejects a client at its
// bound, verifies lazily against the owning backend when challenged, and
// frees the slot the moment the job is observed terminal.
func TestAdmissionInflightCap(t *testing.T) {
	gw, gwURL, stubs := bootStubs(t,
		Config{ProbeInterval: time.Hour, MaxInflightPerClient: 1},
		"alpha", "beta")
	body := specBody(t, testSpec())
	hdr := map[string]string{"X-Episim-Client": "tenant-cap"}

	first := postSpec(t, gwURL, body, hdr)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", first.StatusCode)
	}
	// Job still running on its backend: the cap holds (lazy verification
	// confirms the job is live before rejecting).
	second := postSpec(t, gwURL, body, hdr)
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: HTTP %d, want 429", second.StatusCode)
	}
	if gw.throttledInflight.Load() != 1 {
		t.Fatalf("throttledInflight = %d, want 1", gw.throttledInflight.Load())
	}

	// The job finishes (every stub job now reports done): the next
	// submission triggers lazy verification, which frees the slot. The
	// verification cooldown must lapse first — it exists so a hot-looping
	// rejected client cannot amplify POSTs into backend RPC fans.
	for _, sb := range stubs {
		sb.jobState.Store(client.StateDone)
	}
	time.Sleep(600 * time.Millisecond)
	third := postSpec(t, gwURL, body, hdr)
	if third.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(third.Body)
		t.Fatalf("post-completion submit: HTTP %d: %s", third.StatusCode, raw)
	}
}

// TestSpillFallbackCounters: a spill target that refuses the job, with
// the submission falling BACK to the cache-affine owner, must count as
// neither a spill nor a reroute — the job landed exactly where cache
// locality wanted it.
func TestSpillFallbackCounters(t *testing.T) {
	gw, gwURL, stubs := bootStubs(t,
		Config{ProbeInterval: 30 * time.Millisecond, SpillQueueDepth: 2},
		"alpha", "beta")
	body := specBody(t, testSpec())
	key := DominantPlacementKey(testSpec())
	order := gw.rankFor(key)
	owner, runnerUp := order[0].identity(), order[1].identity()

	stubs[owner].depth.Store(5)            // saturated: spill decision fires
	stubs[runnerUp].failSubmit.Store(true) // ...but the target refuses
	waitDepth(t, gw, owner, 5)

	resp := postSpec(t, gwURL, body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(backendHeader); got != owner {
		t.Fatalf("fallback landed on %s, want affine owner %s", got, owner)
	}
	if s, r := gw.spilled.Load(), gw.rerouted.Load(); s != 0 || r != 0 {
		t.Fatalf("fallback-to-owner counted spilled=%d rerouted=%d, want 0/0", s, r)
	}
}

// TestPositionalNameCollisionRefused: a daemon reporting a name shaped
// like another slot's positional identity ("b1") must be refused — it
// would shadow that slot's fallback ids in resolveID and misroute them.
func TestPositionalNameCollisionRefused(t *testing.T) {
	gw, _, _ := bootStubs(t, Config{ProbeInterval: time.Hour}, "b1", "honest")
	if got := gw.backends[0].identity(); got != "b0" {
		t.Fatalf("backend 0 adopted %q, must keep fallback b0", got)
	}
	// "b1-sw-000001" still resolves to slot 1, not the impostor.
	b, _, ok := gw.resolveID("b1-sw-000001")
	if !ok || b.index != 1 {
		t.Fatalf("b1 id resolved to index %d (ok=%v), want 1", b.index, ok)
	}
}

// TestStatsDegradeToLastKnown is the fleet-outage fix: with every
// backend down, /v1/stats and /metrics must serve the last-known
// aggregates under fleet_healthy=0 instead of erroring or zeroing.
func TestStatsDegradeToLastKnown(t *testing.T) {
	tc := bootCluster(t, 2, Config{ProbeInterval: 50 * time.Millisecond, FailAfter: 1,
		ProbeTimeout: 500 * time.Millisecond})
	ack, _ := tc.submitRaw(t, specBody(t, testSpec()))
	tc.waitDone(t, ack.ID)

	// Live read: seed the last-known snapshots.
	var live StatsReply
	_, raw := getRaw(t, tc.gwURL+"/v1/stats")
	if err := json.Unmarshal(raw, &live); err != nil {
		t.Fatal(err)
	}
	if live.SweepsDone != 1 || live.Gateway.FleetHealthy != 1 {
		t.Fatalf("live stats = done %d healthy %d, want 1/1", live.SweepsDone, live.Gateway.FleetHealthy)
	}

	for _, b := range tc.backends {
		b.CloseClientConnections()
		b.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.gw.healthyCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("prober never ejected the dead fleet")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var dead StatsReply
	code, raw := getRaw(t, tc.gwURL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats with dead fleet: HTTP %d", code)
	}
	if err := json.Unmarshal(raw, &dead); err != nil {
		t.Fatal(err)
	}
	if dead.Gateway.FleetHealthy != 0 {
		t.Fatalf("fleet_healthy = %d with every backend dead", dead.Gateway.FleetHealthy)
	}
	if dead.SweepsDone != 1 {
		t.Fatalf("aggregate zeroed out: sweeps_done = %d, want last-known 1", dead.SweepsDone)
	}
	stale := 0
	for _, bs := range dead.Backends {
		if bs.Stats != nil && bs.StatsStale {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("no backend served last-known stats: %s", raw)
	}

	code, metrics := getRaw(t, tc.gwURL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics with dead fleet: HTTP %d", code)
	}
	ms := string(metrics)
	if !strings.Contains(ms, "episim_gw_fleet_healthy 0") {
		t.Fatalf("metrics missing fleet_healthy 0:\n%s", ms)
	}
	if !strings.Contains(ms, "episimd_sweeps_done 1") {
		t.Fatalf("metrics lost last-known sweeps_done:\n%s", ms)
	}
}

// TestListPartialWhenBackendEjected: with one backend ejected the merged
// list still answers, carrying the live backend's jobs under gateway ids
// and naming the missing backend in X-Episim-Partial.
func TestListPartialWhenBackendEjected(t *testing.T) {
	gw, gwURL, stubs := bootStubs(t, Config{ProbeInterval: time.Hour, FailAfter: 1}, "alpha", "beta")
	stubs["beta"].ts.Close()
	gw.probeAll()
	if n := gw.healthyCount(); n != 1 {
		t.Fatalf("%d healthy backends after closing beta, want 1", n)
	}

	resp, err := http.Get(gwURL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Episim-Partial"); got != "beta" {
		t.Fatalf("X-Episim-Partial = %q, want beta", got)
	}
	var jobs []client.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "alpha-sw-000007" {
		t.Fatalf("partial list = %+v, want alpha's one job as alpha-sw-000007", jobs)
	}
}

// TestHealthzDegradedBackendNamedButEjected: a backend whose /healthz
// answers a named 503 is adopted under that name, so ids issued to it
// keep resolving, but stays ejected probe after probe with the cause on
// record.
func TestHealthzDegradedBackendNamedButEjected(t *testing.T) {
	sb := newStubBackend(t, "sick")
	sb.degraded.Store(true)
	gw, err := New(Config{Backends: []string{sb.ts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	b := gw.backends[0]
	for round := 0; round < 3; round++ {
		if got := b.identity(); got != "sick" {
			t.Fatalf("round %d: identity %q, want the 503's name sick", round, got)
		}
		if b.healthy.Load() {
			t.Fatalf("round %d: a degraded backend was admitted", round)
		}
		gw.probeAll()
	}
	if owner, local, ok := gw.resolveID("sick-sw-000001"); !ok || owner != b || local != "sw-000001" {
		t.Fatalf("resolveID(sick-sw-000001) = %v %q %v", owner, local, ok)
	}
	if e := b.lastError(); !strings.Contains(e, "cache dir gone") {
		t.Fatalf("last error %q does not carry the 503's cause", e)
	}
}
