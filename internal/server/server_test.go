package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	episim "repro"
	"repro/client"
)

// scriptedRunner fabricates a sweep runner that emits one cell aggregate
// per `step` receive — tests pump the channel to control exactly when
// each cell finalizes — and honors cancellation between cells.
func scriptedRunner(step chan struct{}) sweepRunner {
	return func(ctx context.Context, spec *episim.SweepSpec, opts *episim.SweepOptions) (*episim.SweepResult, error) {
		cells := spec.Cells()
		res := &episim.SweepResult{
			Spec:             spec,
			PopulationBuilds: map[string]int{},
			PlacementBuilds:  map[string]int{},
			Simulations:      len(cells) * spec.Replicates,
		}
		for _, cell := range cells {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-step:
			}
			cr := episim.SweepCellResult{
				Index:      cell.Index,
				Label:      cell.Label(),
				Population: cell.Population.Label(),
				Replicates: spec.Replicates,
				Days:       spec.Days,
			}
			if opts.OnCell != nil {
				opts.OnCell(cr)
			}
			res.Cells = append(res.Cells, cr)
		}
		return res, nil
	}
}

// testSpec is a tiny 3-cell grid (1 pop × 1 placement × 3 scenarios).
func testServerSpec() *episim.SweepSpec {
	s := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "p", People: 100, Locations: 10}},
		Placements:  []episim.SweepPlacement{{Strategy: "RR", Ranks: 2}},
		Scenarios: []episim.SweepScenario{
			{Name: "s0"}, {Name: "s1"}, {Name: "s2"},
		},
		Replicates: 2,
		Days:       5,
		Seed:       3,
	}
	s.Normalize()
	return s
}

// newTestServer boots a scripted server + HTTP client pair.
func newTestServer(t *testing.T, cfg Config, run sweepRunner) (*Server, *client.Client) {
	t.Helper()
	srv, err := newWithRunner(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, client.New(ts.URL)
}

// collectStream runs client.Stream in a goroutine, forwarding events on
// a channel; the returned error channel yields Stream's result.
func collectStream(ctx context.Context, c *client.Client, id string, from int) (<-chan client.Event, <-chan error) {
	events := make(chan client.Event, 64)
	errc := make(chan error, 1)
	go func() {
		defer close(events)
		errc <- c.Stream(ctx, id, from, func(ev client.Event) error {
			events <- ev
			return nil
		})
	}()
	return events, errc
}

func waitEvent(t *testing.T, events <-chan client.Event) client.Event {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("event stream closed early")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for stream event")
	}
	panic("unreachable")
}

// TestStreamsCellsBeforeSweepCompletes is the streaming acceptance test:
// a subscriber receives each cell aggregate the moment it finalizes,
// while the job is verifiably still running (the scripted runner cannot
// proceed to the next cell until the test says so).
func TestStreamsCellsBeforeSweepCompletes(t *testing.T) {
	step := make(chan struct{})
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, scriptedRunner(step))
	ctx := context.Background()

	ack, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ack.Cells != 3 || ack.Simulations != 6 {
		t.Fatalf("ack = %+v, want 3 cells / 6 simulations", ack)
	}

	events, errc := collectStream(ctx, c, ack.ID, 0)

	step <- struct{}{} // finalize cell 0
	ev := waitEvent(t, events)
	if ev.Type != "cell" || ev.Cell == nil || ev.Cell.Index != 0 || ev.Seq != 0 {
		t.Fatalf("first event = %+v, want cell 0 seq 0", ev)
	}
	// The sweep is deterministically still mid-flight: the runner is
	// blocked before cell 1. The cell aggregate arrived anyway.
	if st, err := c.Status(ctx, ack.ID); err != nil || st.State != client.StateRunning || st.CellsDone != 1 {
		t.Fatalf("status after first cell = %+v err=%v, want running with 1 cell done", st, err)
	}

	step <- struct{}{}
	step <- struct{}{}
	if ev := waitEvent(t, events); ev.Type != "cell" || ev.Cell.Index != 1 {
		t.Fatalf("second event = %+v", ev)
	}
	if ev := waitEvent(t, events); ev.Type != "cell" || ev.Cell.Index != 2 {
		t.Fatalf("third event = %+v", ev)
	}
	fin := waitEvent(t, events)
	if fin.Type != "done" || fin.Job == nil || fin.Job.State != client.StateDone || fin.Job.CellsDone != 3 {
		t.Fatalf("terminal event = %+v, want done with 3 cells", fin)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	res, err := c.Result(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("result cells = %d, want 3", len(res.Cells))
	}
}

// TestSSEReplayOnReconnect: a subscriber that connects after completion
// replays the full stream from cell 0; a resumed subscriber (from=N)
// gets only the tail.
func TestSSEReplayOnReconnect(t *testing.T) {
	step := make(chan struct{}, 3)
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, scriptedRunner(step))
	ctx := context.Background()

	ack, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	step <- struct{}{}
	step <- struct{}{}
	step <- struct{}{} // run to completion unobserved
	waitTerminal(t, c, ack.ID)

	// Reconnect from cell 0: full replay, then the terminal event.
	var seqs []int
	var types []string
	if err := c.Stream(ctx, ack.ID, 0, func(ev client.Event) error {
		seqs = append(seqs, ev.Seq)
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 || seqs[0] != 0 || seqs[3] != 3 ||
		types[0] != "cell" || types[3] != "done" {
		t.Fatalf("replay = seqs %v types %v, want cells 0..2 then done", seqs, types)
	}

	// Resume mid-stream: from=2 yields cell 2 and the terminal event only.
	var tail []int
	if err := c.Stream(ctx, ack.ID, 2, func(ev client.Event) error {
		tail = append(tail, ev.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0] != 2 || tail[1] != 3 {
		t.Fatalf("resumed tail = %v, want [2 3]", tail)
	}
}

// TestNDJSONStream: format=ndjson emits one event JSON per line.
func TestNDJSONStream(t *testing.T) {
	step := make(chan struct{}, 3)
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, scriptedRunner(step))
	ctx := context.Background()
	ack, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	step <- struct{}{}
	step <- struct{}{}
	step <- struct{}{}
	waitTerminal(t, c, ack.ID)

	resp, err := http.Get(c.BaseURL + "/v1/sweeps/" + ack.ID + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 4 {
		t.Fatalf("ndjson lines = %d, want 4", len(lines))
	}
	if !strings.Contains(lines[0], `"type":"cell"`) || !strings.Contains(lines[3], `"type":"done"`) {
		t.Fatalf("ndjson content unexpected: %v", lines)
	}
}

// TestCancelMidSweep: canceling a running sweep interrupts it between
// cells; subscribers get the cells that finalized plus a "canceled"
// terminal event, and the job lands in the canceled state.
func TestCancelMidSweep(t *testing.T) {
	step := make(chan struct{})
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, scriptedRunner(step))
	ctx := context.Background()

	ack, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	events, errc := collectStream(ctx, c, ack.ID, 0)

	step <- struct{}{} // one cell finalizes
	if ev := waitEvent(t, events); ev.Type != "cell" {
		t.Fatalf("want a streamed cell first, got %+v", ev)
	}
	if err := c.Cancel(ctx, ack.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitEvent(t, events)
	if fin.Type != "canceled" || fin.Job == nil || fin.Job.State != client.StateCanceled {
		t.Fatalf("terminal event = %+v, want canceled", fin)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, ack.ID)
	if err != nil || st.State != client.StateCanceled || st.CellsDone != 1 {
		t.Fatalf("status = %+v err=%v, want canceled after 1 cell", st, err)
	}
	// A second cancel is a conflict.
	if err := c.Cancel(ctx, ack.ID); err == nil {
		t.Fatal("cancel of a terminal job must fail")
	}
}

// TestQueueingAndCancelWhileQueued: with one active slot, a second
// submission queues (visible in stats); canceling it while queued
// produces an immediate terminal event without it ever running.
func TestQueueingAndCancelWhileQueued(t *testing.T) {
	step := make(chan struct{})
	_, c := newTestServer(t, Config{Workers: 2, MaxActive: 1}, scriptedRunner(step))
	ctx := context.Background()

	ackA, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until A is running (occupying the only slot).
	waitState(t, c, ackA.ID, client.StateRunning)

	ackB, err := c.Submit(ctx, testServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueueDepth != 1 || stats.ActiveSweeps != 1 || stats.SweepsTotal != 2 {
		t.Fatalf("stats = %+v, want 1 queued / 1 active / 2 total", stats)
	}

	if err := c.Cancel(ctx, ackB.ID); err != nil {
		t.Fatal(err)
	}
	var got []client.Event
	if err := c.Stream(ctx, ackB.ID, 0, func(ev client.Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != "canceled" {
		t.Fatalf("queued-cancel stream = %+v, want single canceled event", got)
	}

	// Drain A so Cleanup's Close doesn't race the runner.
	for i := 0; i < 3; i++ {
		step <- struct{}{}
	}
	waitTerminal(t, c, ackA.ID)

	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != ackA.ID || list[1].ID != ackB.ID {
		t.Fatalf("list = %+v", list)
	}
}

// TestConcurrentSweepsShareOnePlacementBuild is the cache acceptance
// test against the REAL engine: two sweeps submitted back-to-back over
// the same (population, placement) run concurrently, and the daemon's
// process-lifetime cache builds the placement exactly once — proven by
// summing the per-run build accounting and by the cache counters.
func TestConcurrentSweepsShareOnePlacementBuild(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 4, MaxActive: 2}, episim.RunSweepContext)
	ctx := context.Background()

	spec := func(name string) *episim.SweepSpec {
		s := &episim.SweepSpec{
			Populations: []episim.SweepPopulation{{Name: "town", People: 400, Locations: 40}},
			Placements:  []episim.SweepPlacement{{Strategy: "GP", Ranks: 4}},
			Scenarios:   []episim.SweepScenario{{Name: name}},
			Replicates:  2,
			Days:        6,
			Seed:        11,
		}
		s.Normalize()
		return s
	}
	ackA, err := c.Submit(ctx, spec("a"))
	if err != nil {
		t.Fatal(err)
	}
	ackB, err := c.Submit(ctx, spec("b"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c, ackA.ID)
	waitTerminal(t, c, ackB.ID)

	for _, id := range []string{ackA.ID, ackB.ID} {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateDone {
			t.Fatalf("job %s state = %s (%s)", id, st.State, st.Error)
		}
		res, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 1 {
			t.Fatalf("job %s returned %d cells, want 1", id, len(res.Cells))
		}
	}
	// The shared cache's own accounting is the proof: two sweeps, one
	// miss, one build (build maps are execution state, not wire data).
	if st := srv.cache.PlacementStats(); st.Misses != 1 || st.Builds != 1 {
		t.Fatalf("placement cache stats = %+v, want a single miss and build", st)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SweepsDone != 2 || stats.CellsStreamed != 2 {
		t.Fatalf("stats = %+v, want 2 done sweeps / 2 streamed cells", stats)
	}
}

// TestSubmitValidation and the metrics endpoint.
func TestSubmitRejectsBadSpec(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActive: 1}, scriptedRunner(make(chan struct{})))
	resp, err := http.Post(c.BaseURL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"placements":[{"strategy":"RR","ranks":2}],"replicates":1,"days":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if _, err := c.Status(context.Background(), "sw-999999"); err == nil {
		t.Fatal("unknown job must 404")
	}
}

// A model text whose susceptibility or infectivity line has no value is a
// 400 that says so, not a handler panic that drops the connection.
func TestSubmitRejectsValuelessModelLine(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActive: 1}, scriptedRunner(make(chan struct{})))
	for _, key := range []string{"susceptibility", "infectivity"} {
		body := `{"populations":[{"name":"town","people":400,"locations":40}],` +
			`"placements":[{"strategy":"RR","ranks":2}],` +
			`"models":[{"name":"m","text":"state x\n  ` + key + `"}],"replicates":1,"days":5}`
		resp, err := http.Post(c.BaseURL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := key + " needs one value"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Errorf("%s: HTTP %d %s, want 400 containing %q", key, resp.StatusCode, msg, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActive: 1}, scriptedRunner(make(chan struct{})))
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	body := sb.String()
	for _, want := range []string{
		"episimd_queue_depth ",
		"episimd_cells_streamed_total ",
		"episimd_placement_cache_hits_total ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func waitState(t *testing.T, c *client.Client, id string, want client.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached terminal %s waiting for %s (%s)", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func waitTerminal(t *testing.T, c *client.Client, id string) client.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	panic("unreachable")
}
