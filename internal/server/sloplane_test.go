package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/artifact"
	"repro/internal/obs"
)

// appendPoint snapshots the server's current stats into its history ring
// — the deterministic stand-in for one collection tick (the test configs
// use an hour-long interval so the loop never ticks on its own).
func appendPoint(srv *Server) {
	srv.slo.history.Append(StatsHistoryPoint(srv.stats(), false))
}

// badSubmit posts an unparseable body straight at the handler,
// exercising the submit-availability SLO's error path.
func badSubmit(srv *Server) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader("{not json"))
	srv.Handler().ServeHTTP(rr, req)
}

// TestSLOPlaneEndToEnd drives the whole plane through the HTTP surface:
// per-client usage attribution, ring-derived burn rates on /v1/slo and
// /metrics, and the history endpoint's window summaries.
func TestSLOPlaneEndToEnd(t *testing.T) {
	step := make(chan struct{})
	srv, c := newTestServer(t, Config{Workers: 2, MaxActive: 1, HistoryInterval: time.Hour},
		scriptedRunner(step))
	c.ClientID = "tenant-a"
	ctx := context.Background()
	// The ring's boot point lands asynchronously from Start; the burn
	// assertions below need it as their zero-counter base.
	for srv.slo.history.Len() == 0 {
		time.Sleep(time.Millisecond)
	}

	ack, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	events, errc := collectStream(ctx, c, ack.ID, 0)
	for i := 0; i < 3; i++ {
		step <- struct{}{}
	}
	for ev := waitEvent(t, events); ev.Type == "cell"; ev = waitEvent(t, events) {
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// Usage: the submission, its cells, and the streamed event bytes all
	// bill to the ClientID the client stamped on its requests.
	usage, err := c.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if usage.Instance != srv.name {
		t.Fatalf("usage instance = %q, want %q", usage.Instance, srv.name)
	}
	var row *obs.ClientUsage
	for i := range usage.Clients {
		if usage.Clients[i].Client == "tenant-a" {
			row = &usage.Clients[i]
		}
	}
	if row == nil {
		t.Fatalf("no tenant-a row in usage reply: %+v", usage.Clients)
	}
	if row.Submissions != 1 || row.Cells != 3 {
		t.Fatalf("tenant-a usage = %+v, want 1 submission / 3 cells", row)
	}
	if row.StreamedBytes <= 0 {
		t.Fatalf("tenant-a streamed bytes = %d, want > 0", row.StreamedBytes)
	}

	// One failed submission, then one manual collection tick: the 5m
	// window now covers 2 submits with 1 error — burn 0.5/0.01 = 50.
	badSubmit(srv)
	appendPoint(srv)

	slo, err := c.SLO(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slo.Stale {
		t.Fatal("live ring evaluated stale")
	}
	var avail *obs.SLOStatus
	for i := range slo.SLOs {
		if slo.SLOs[i].Name == "submit-availability" {
			avail = &slo.SLOs[i]
		}
	}
	if avail == nil || len(avail.Windows) != 2 {
		t.Fatalf("submit-availability missing or wrong windows: %+v", slo.SLOs)
	}
	if got := avail.Windows[0].BurnRate; got < 25 || got > 75 {
		t.Fatalf("5m burn = %v, want ~50 (1 bad of 2 against a 1%% budget)", got)
	}

	// History: the boot point plus the manual tick, with both default
	// windows summarized.
	hist, err := c.MetricsHistory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Points) < 2 {
		t.Fatalf("history has %d points, want >= 2", len(hist.Points))
	}
	for _, w := range []string{"5m", "1h"} {
		if _, ok := hist.Windows[w]; !ok {
			t.Fatalf("history windows missing %q: %v", w, hist.Windows)
		}
	}

	// /metrics renders the SLO families alongside the new counters.
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"episim_slo_burn_rate{slo=\"submit-availability\",window=\"5m\"}",
		"episimd_submissions_received_total 2",
		"episimd_submission_errors_total 1",
		"episimd_trace_dropped_spans_total",
		"episimd_profile_captures_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// ledgerProbe is a ResponseWriter whose Flush compares what the stream has
// put on the wire so far with what the usage ledger has billed for it.
type ledgerProbe struct {
	*httptest.ResponseRecorder
	t       *testing.T
	srv     *Server
	client  string
	flushes int
}

func (p *ledgerProbe) Flush() {
	p.flushes++
	// NDJSON: every event is its payload plus one newline.
	body := p.Body.Bytes()
	payload := int64(len(body) - bytes.Count(body, []byte("\n")))
	var billed int64
	for _, row := range p.srv.usage.Snapshot() {
		if row.Client == p.client {
			billed = row.StreamedBytes
		}
	}
	if billed < payload {
		p.t.Errorf("flush %d: %d payload bytes on the wire, %d billed to %s",
			p.flushes, payload, billed, p.client)
	}
}

// TestStreamedBytesBilledBeforeFlush is the deterministic form of
// TestSLOPlaneEndToEnd's streamed-bytes check: by the time an event —
// the terminal one included — is flushed to the client, its payload is
// already on the client's usage row, so no reader of the stream can beat
// the ledger to /v1/usage.
func TestStreamedBytesBilledBeforeFlush(t *testing.T) {
	step := make(chan struct{})
	srv, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, scriptedRunner(step))
	ctx := context.Background()
	ack, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	events, errc := collectStream(ctx, c, ack.ID, 0)
	for i := 0; i < 3; i++ {
		step <- struct{}{}
	}
	for ev := waitEvent(t, events); ev.Type == "cell"; ev = waitEvent(t, events) {
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// The stream is complete, so the handler replays all four events and
	// returns, entirely on this goroutine.
	j, ok := srv.store.get(ack.ID)
	if !ok {
		t.Fatalf("job %s not in store", ack.ID)
	}
	req := httptest.NewRequest("GET", "/v1/sweeps/"+ack.ID+"/events?format=ndjson", nil)
	req.Header.Set("X-Episim-Client", "probe")
	probe := &ledgerProbe{ResponseRecorder: httptest.NewRecorder(), t: t, srv: srv, client: "probe"}
	srv.handleEvents(probe, req, j)
	if probe.flushes != 4 {
		t.Fatalf("probe saw %d flushes, want 3 cells + done", probe.flushes)
	}
}

// TestWatchdogCapturesProfiles forces a fast burn with a disk store
// attached and waits for the watchdog to land pprof artifacts.
func TestWatchdogCapturesProfiles(t *testing.T) {
	step := make(chan struct{})
	srv, _ := newTestServer(t, Config{
		Workers: 2, MaxActive: 1,
		CacheDir:          t.TempDir(),
		HistoryInterval:   time.Hour,
		BurnThreshold:     1,
		ProfileCooldown:   time.Millisecond,
		ProfileCPUSeconds: 0.1,
	}, scriptedRunner(step))

	// The ring's boot point lands asynchronously from Start; the burn
	// window needs it as its zero-counter base.
	for srv.slo.history.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	badSubmit(srv) // 1 of 1 submissions failed: burn 100 on the next tick
	appendPoint(srv)

	deadline := time.Now().Add(10 * time.Second)
	for srv.stats().ProfileCaptures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never captured a profile")
		}
		time.Sleep(20 * time.Millisecond)
	}

	keys, err := srv.store.results.Keys()
	if err != nil {
		t.Fatal(err)
	}
	profiles := 0
	for _, k := range keys {
		if k.Kind == artifact.KindProfile {
			profiles++
			if k.Size <= 0 {
				t.Fatalf("profile artifact %s is empty", k.Key)
			}
		}
	}
	if profiles == 0 {
		t.Fatalf("no profile artifacts in store; keys = %+v", keys)
	}
	// The listing endpoint exposes exactly those artifacts.
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/profiles", nil))
	if !strings.Contains(rr.Body.String(), "prof-") {
		t.Fatalf("/v1/profiles lists no captures: %s", rr.Body.String())
	}
}

// TestTraceDroppedSpansCounter overflows one job's span cap and checks
// the overflow rolls into the daemon-wide counter at job completion.
func TestTraceDroppedSpansCounter(t *testing.T) {
	run := func(ctx context.Context, spec *episim.SweepSpec, opts *episim.SweepOptions) (*episim.SweepResult, error) {
		now := time.Now()
		for i := 0; i < 5000; i++ {
			opts.Trace.Add("replicate_sim", "", now, now)
		}
		return &episim.SweepResult{Spec: spec}, nil
	}
	srv, c := newTestServer(t, Config{Workers: 1, MaxActive: 1, HistoryInterval: time.Hour}, run)
	ctx := context.Background()

	ack, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(ctx, ack.ID, 0, func(ev client.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := srv.stats().TraceDroppedSpans; got <= 0 {
		t.Fatalf("TraceDroppedSpans = %d, want > 0 after overflowing the span cap", got)
	}
}
