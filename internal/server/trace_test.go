package server

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

// spanUnionSeconds is the wall time covered by the union of the spans'
// intervals (spans nest and overlap, so they merge before summing).
func spanUnionSeconds(spans []client.TraceSpan) float64 {
	iv := make([][2]time.Time, 0, len(spans))
	for _, sp := range spans {
		if sp.End.After(sp.Start) {
			iv = append(iv, [2]time.Time{sp.Start, sp.End})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var covered time.Duration
	curS, curE := iv[0][0], iv[0][1]
	for _, p := range iv[1:] {
		if p[0].After(curE) {
			covered += curE.Sub(curS)
			curS, curE = p[0], p[1]
			continue
		}
		if p[1].After(curE) {
			curE = p[1]
		}
	}
	covered += curE.Sub(curS)
	return covered.Seconds()
}

// TestTracePropagationAndCoverage is the tracing acceptance test against
// the real engine: a submission carrying X-Episim-Trace-Id yields a
// timeline stamped with that id, whose spans include every execution
// stage and whose union covers at least 95% of the job's wall clock.
func TestTracePropagationAndCoverage(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, episim.RunSweepContext)
	c.TraceID = "t-123"
	ack, err := c.Submit(context.Background(), testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ack.TraceID != "t-123" {
		t.Fatalf("ack trace id = %q, want t-123", ack.TraceID)
	}
	st := waitTerminal(t, c, ack.ID)
	if st.State != client.StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.TraceID != "t-123" {
		t.Fatalf("status trace id = %q, want t-123", st.TraceID)
	}

	tr, err := c.Trace(context.Background(), ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != "t-123" || tr.ID != ack.ID || tr.State != client.StateDone {
		t.Fatalf("trace header fields wrong: %+v", tr)
	}
	if tr.SpansDropped != 0 {
		t.Fatalf("%d spans dropped on a tiny sweep", tr.SpansDropped)
	}
	names := map[string]int{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
		if sp.Seconds < 0 || sp.End.Before(sp.Start) {
			t.Fatalf("span %q has negative duration: %+v", sp.Name, sp)
		}
	}
	// The real engine must have traced every stage: builds (one unique
	// population and placement), one sim per replicate per cell, one
	// aggregation per cell, plus the scheduler's admission bracketing.
	spec := testServerSpec()
	cells := len(spec.Cells())
	for name, want := range map[string]int{
		"admission":        1,
		"queue_wait":       1,
		"run":              1,
		"population_build": 1,
		"placement_build":  1,
		"sim":              cells * spec.Replicates,
		"aggregate":        cells,
	} {
		if names[name] != want {
			t.Fatalf("span %q count = %d, want %d (spans: %v)", name, names[name], want, names)
		}
	}
	// Coverage contract: queue_wait + run tile created→finished exactly,
	// so the union must cover ≥95% of the wall clock.
	if tr.WallSeconds <= 0 {
		t.Fatalf("wall seconds = %v", tr.WallSeconds)
	}
	if cov := spanUnionSeconds(tr.Spans) / tr.WallSeconds; cov < 0.95 {
		t.Fatalf("spans cover %.1f%% of wall clock, want >= 95%%", 100*cov)
	}
}

// TestTraceIDGeneratedAndSanitized: a submission without a trace id gets
// one minted; a hostile header (injection attempt) is discarded, not
// echoed.
func TestTraceIDGeneratedAndSanitized(t *testing.T) {
	step := make(chan struct{}, 16)
	_, c := newTestServer(t, Config{Workers: 1, MaxActive: 1}, scriptedRunner(step))
	ack, err := c.Submit(context.Background(), testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ack.TraceID == "" {
		t.Fatal("no trace id minted for an untraced submission")
	}
	// Header-legal but sanitizer-illegal (spaces, quotes — would corrupt
	// log lines); the server must mint a fresh id, not echo it.
	c.TraceID = `evil id" injected=1`
	ack2, err := c.Submit(context.Background(), testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ack2.TraceID == "" || strings.ContainsAny(ack2.TraceID, "\r\n \"") || ack2.TraceID == c.TraceID {
		t.Fatalf("hostile trace id not replaced: %q", ack2.TraceID)
	}
}

// parseMetricValue extracts one series' value from Prometheus text.
func parseMetricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("series %q: bad value in %q: %v", series, line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in metrics:\n%s", series, body)
	return 0
}

// TestMetricsHistograms: after a real sweep, /metrics exposes the five
// histogram families with HELP/TYPE blocks and cumulative buckets that
// are monotone and end at the family's _count.
func TestMetricsHistograms(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, episim.RunSweepContext)
	ack, err := c.Submit(context.Background(), testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c, ack.ID)

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)

	spec := testServerSpec()
	wantCount := map[string]float64{
		"episimd_submit_seconds":          1,
		"episimd_queue_wait_seconds":      1,
		"episimd_placement_build_seconds": 1,
		"episimd_cell_seconds":            float64(len(spec.Cells()) * spec.Replicates),
		"episimd_result_persist_seconds":  0, // memory-only server: nothing persisted
	}
	for fam, want := range wantCount {
		for _, block := range []string{"# HELP " + fam + " ", "# TYPE " + fam + " histogram"} {
			if !strings.Contains(body, block) {
				t.Fatalf("metrics missing %q", block)
			}
		}
		count := parseMetricValue(t, body, fam+"_count")
		if count != want {
			t.Fatalf("%s_count = %v, want %v", fam, count, want)
		}
		// Cumulative bucket counts: monotone non-decreasing, +Inf == count.
		prev := -1.0
		var last float64
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, fam+"_bucket{") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("%s buckets not cumulative: %q after %v", fam, line, prev)
			}
			prev, last = v, v
		}
		if last != count {
			t.Fatalf("%s +Inf bucket = %v, want _count %v", fam, last, count)
		}
	}
	// Renamed index gauges: new names present, old counter names gone.
	for _, want := range []string{"episimd_sweeps ", "episimd_sweeps_done "} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing renamed series %q", want)
		}
	}
	for _, gone := range []string{"episimd_sweeps_total", "episimd_sweeps_done_total"} {
		if strings.Contains(body, gone) {
			t.Fatalf("metrics still expose retired name %q", gone)
		}
	}
	if !strings.Contains(body, "# TYPE go_goroutines gauge") {
		t.Fatal("metrics missing runtime series go_goroutines")
	}
	// The same snapshots ride /v1/stats as JSON for gateway merging.
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Histograms) != 5 {
		t.Fatalf("stats carries %d histograms, want 5", len(stats.Histograms))
	}
	for _, h := range stats.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			t.Fatalf("histogram %s: %d counts for %d bounds", h.Name, len(h.Counts), len(h.Bounds))
		}
	}
}

// TestObserveSpanFeedsHistograms: the timeline observer is the single
// path from spans into daemon-wide histograms — exact counts, no
// sampling.
func TestObserveSpanFeedsHistograms(t *testing.T) {
	srv, err := newWithRunner(Config{Workers: 1, MaxActive: 1}, scriptedRunner(make(chan struct{})))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tl := obs.NewTimeline("t")
	tl.SetObserver(srv.observeSpan)
	now := time.Now()
	tl.Add("queue_wait", "", now.Add(-time.Second), now)
	tl.Add("sim", "", now.Add(-time.Millisecond), now)
	tl.Add("sim", "", now.Add(-time.Millisecond), now)
	tl.Add("irrelevant", "", now.Add(-time.Millisecond), now)
	if got := srv.queueWaitHist.Snapshot().Count; got != 1 {
		t.Fatalf("queue_wait count = %d, want 1", got)
	}
	if got := srv.cellHist.Snapshot().Count; got != 2 {
		t.Fatalf("cell count = %d, want 2", got)
	}
	if got := srv.submitHist.Snapshot().Count; got != 0 {
		t.Fatalf("submit count = %d, want 0", got)
	}
}

// TestCanceledQueuedJobTerminalSpan: a job canceled while still queued
// never reaches execute(), yet its timeline must end in a terminal run
// span (with the real queue_wait recorded) and its observer must be
// closed — otherwise component rollups see a dangling open job and late
// spans would keep feeding service histograms after terminal state.
func TestCanceledQueuedJobTerminalSpan(t *testing.T) {
	step := make(chan struct{}, 16)
	srv, c := newTestServer(t, Config{Workers: 1, MaxActive: 1}, scriptedRunner(step))

	// Occupy the single admission slot so the next submission queues.
	first, err := c.Submit(context.Background(), testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(context.Background(), testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(context.Background(), queued.ID); err != nil {
		t.Fatal(err)
	}

	tr, err := c.Trace(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.State != client.StateCanceled {
		t.Fatalf("state = %s, want canceled", tr.State)
	}
	got := map[string]int{}
	var terminal *client.TraceSpan
	for i, sp := range tr.Spans {
		got[sp.Name]++
		if sp.Name == "run" {
			terminal = &tr.Spans[i]
		}
	}
	if got["queue_wait"] != 1 || got["run"] != 1 {
		t.Fatalf("canceled-while-queued trace lacks terminal spans: %v", got)
	}
	if terminal.Detail != string(client.StateCanceled) {
		t.Fatalf("terminal span detail = %q, want canceled", terminal.Detail)
	}

	// The timeline is closed: later spans are recorded for the trace but
	// no longer observed into the daemon histograms.
	j, ok := srv.store.get(queued.ID)
	if !ok {
		t.Fatal("queued job vanished")
	}
	if !j.trace.Closed() {
		t.Fatal("canceled job's timeline not closed")
	}
	before := srv.queueWaitHist.Snapshot().Count
	now := time.Now()
	j.trace.Add("queue_wait", "straggler", now.Add(-time.Second), now)
	if after := srv.queueWaitHist.Snapshot().Count; after != before {
		t.Fatalf("closed timeline still feeds histograms: %d -> %d", before, after)
	}

	// Unblock and finish the first job so Close() does not hang.
	for i := 0; i < 16; i++ {
		select {
		case step <- struct{}{}:
		default:
		}
	}
	waitTerminal(t, c, first.ID)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
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
	srv, c := newTestServer(t, Config{Workers: 1, MaxActive: 1}, run)
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
