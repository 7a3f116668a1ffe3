package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// badSubmit posts an unparseable body straight at the handler,
// exercising the submission error counter.
func badSubmit(srv *Server) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader("{not json"))
	srv.Handler().ServeHTTP(rr, req)
}

// TestUsageEndToEnd drives per-client usage attribution through the HTTP
// surface, then checks the request-outcome counters episim-top derives
// burn rates from on /metrics.
func TestUsageEndToEnd(t *testing.T) {
	step := make(chan struct{})
	srv, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, scriptedRunner(step))
	c.ClientID = "tenant-a"
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

	// One failed submission: 2 received, 1 refused.
	badSubmit(srv)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
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
// TestUsageEndToEnd's streamed-bytes check: by the time an event —
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
