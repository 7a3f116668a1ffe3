package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// row returns the fields of the frame's line that starts with name — for
// an SLO: name, objective, burn(Δ), burn(all) and, when marked, STALE.
func row(t *testing.T, frame, name string) []string {
	t.Helper()
	for _, line := range strings.Split(frame, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f
		}
	}
	t.Fatalf("frame has no %s line:\n%s", name, frame)
	return nil
}

// queueWaitSnapshot is an episimd_queue_wait_seconds snapshot with two
// finite buckets, ≤10 s and ≤60 s, so the 30 s budget falls inside the
// second one.
func queueWaitSnapshot(counts ...uint64) obs.HistogramSnapshot {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return obs.HistogramSnapshot{Name: "episimd_queue_wait_seconds", Bounds: []float64{10, 60}, Counts: counts, Count: n}
}

func TestRenderBurnRates(t *testing.T) {
	prev := cluster.StatsReply{StatsReply: client.StatsReply{
		SubmitsTotal: 10, SubmitErrors: 0,
		EventsSent: 999, EventsSendErrors: 1,
		Histograms: []obs.HistogramSnapshot{queueWaitSnapshot(4, 0, 0)},
	}}
	cur := cluster.StatsReply{StatsReply: client.StatsReply{
		SubmitsTotal: 12, SubmitErrors: 1,
		EventsSent: 1997, EventsSendErrors: 3,
		Histograms: []obs.HistogramSnapshot{queueWaitSnapshot(4, 5, 1)},
	}}
	// Worked by hand; burn = (bad/total) / (1 − objective).
	//
	// submit-availability (0.99):
	//   Δ   2 submits, 1 error:   0.5 / 0.01      = 50.00
	//   all 12 submits, 1 error:  (1/12) / 0.01   = 8.33
	// queue-wait (0.99, ≤30 s): the 30 s budget sits 20/50 of the way
	// through the (10, 60] bucket, so CountAtOrBelow(30) is
	// 4 + 5·0.4 = 6 now and 4 + 0·0.4 = 4 before.
	//   Δ   6 waits, 6−4 = 2 good: (4/6) / 0.01   = 66.67
	//   all 10 waits, 6 good:      (4/10) / 0.01  = 40.00
	// event-delivery (0.999), attempts = sent + failed:
	//   Δ   2000−1000 attempts, 2 failed: 0.002 / 0.001  = 2.00
	//   all 2000 attempts, 3 failed:      0.0015 / 0.001 = 1.50
	live := map[string][2]string{
		"submit-availability": {"50.00", "8.33"},
		"queue-wait":          {"66.67", "40.00"},
		"event-delivery":      {"2.00", "1.50"},
	}
	// A submit counter that went down between polls: the target
	// restarted, so no SLO's Δ is measurable, while burn(all) reads the
	// new process's counters as before.
	restartedPrev := prev
	restartedPrev.SubmitsTotal = 50

	staleBackend := cur
	staleBackend.Gateway = cluster.GatewayStats{BackendsTotal: 2, BackendsHealthy: 1, FleetHealthy: 1}
	staleBackend.Backends = []cluster.BackendStatus{{Name: "a", Healthy: true}, {Name: "b", StatsStale: true}}
	fleetDown := cur
	fleetDown.Gateway = cluster.GatewayStats{BackendsTotal: 1}
	fleetUp := cur
	fleetUp.Gateway = cluster.GatewayStats{BackendsTotal: 1, BackendsHealthy: 1, FleetHealthy: 1}

	for _, tc := range []struct {
		name  string
		prev  *cluster.StatsReply
		cur   cluster.StatsReply
		want  map[string][2]string
		stale bool
	}{
		{"interval", &prev, cur, live, false},
		{"first-frame", nil, cur, map[string][2]string{
			"submit-availability": {"-", "8.33"},
			"queue-wait":          {"-", "40.00"},
			"event-delivery":      {"-", "1.50"},
		}, false},
		{"counter-reset", &restartedPrev, cur, map[string][2]string{
			"submit-availability": {"-", "8.33"},
			"queue-wait":          {"-", "40.00"},
			"event-delivery":      {"-", "1.50"},
		}, false},
		{"gateway-live", &prev, fleetUp, live, false},
		{"stale-backend", &prev, staleBackend, live, true},
		{"fleet-unreachable", &prev, fleetDown, live, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := render("http://target", tc.prev, poll{st: tc.cur}, 8)
			for name, want := range tc.want {
				f := row(t, frame, name)
				if len(f) < 4 || f[2] != want[0] || f[3] != want[1] {
					t.Errorf("%s row = %q, want burn(Δ) %s, burn(all) %s", name, f, want[0], want[1])
				}
				if stale := len(f) == 5 && f[4] == "STALE"; stale != tc.stale {
					t.Errorf("%s row = %q, stale mark %v, want %v", name, f, stale, tc.stale)
				}
			}
		})
	}
}

func TestRenderIdleTargetBurnsNothing(t *testing.T) {
	frame := render("http://target", &cluster.StatsReply{}, poll{}, 8)
	for _, s := range slos {
		if f := row(t, frame, s.name); f[2] != "0.00" || f[3] != "0.00" {
			t.Errorf("idle %s row = %q, want 0.00 0.00", s.name, f)
		}
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{{"-top", "-1"}, {"-interval", "0"}, {"-interval", "-1s"}} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"-top", "0", "-once"}, io.Discard)
	if err != nil || o.topN != 0 || !o.once || o.interval != 2*time.Second || o.addr != "http://localhost:8320" {
		t.Fatalf("parseFlags = %+v, %v", o, err)
	}
}

// TestOnceFrameThroughGateway renders one -once frame against a real
// episimd behind a real gateway, and against the daemon directly.
func TestOnceFrameThroughGateway(t *testing.T) {
	quiet := obs.NewLogger(io.Discard, "text", obs.LevelError, "test")
	srv, err := server.New(server.Config{Workers: 1, MaxActive: 1, Name: "top-0", Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	ds := httptest.NewServer(srv.Handler())
	defer func() { srv.Close(); ds.Close() }()
	gw, err := cluster.New(cluster.Config{Backends: []string{ds.URL}, ProbeInterval: time.Hour, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(gw.Handler())
	defer func() { gw.Close(); gs.Close() }()

	spec := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "top-town", People: 300, Locations: 30}},
		Placements:  []episim.SweepPlacement{{Strategy: "RR", Ranks: 2}},
		Replicates:  1,
		Days:        3,
		Seed:        5,
	}
	c := client.New(gs.URL)
	c.ClientID = "tenant-top"
	ctx := context.Background()
	ack, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(ctx, ack.ID, 0, func(client.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// One refused submission straight to the daemon: 1 of 2 failed.
	resp, err := http.Post(ds.URL+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	frames := map[string]string{}
	for target, url := range map[string]string{"gateway": gs.URL, "daemon": ds.URL} {
		p, err := fetch(http.DefaultClient, url)
		if err != nil {
			t.Fatal(err)
		}
		frames[target] = render(url, nil, p, 8)
	}
	for target, frame := range frames {
		for _, want := range []string{"queue 0  active 0  done 1/1", "tenant-top"} {
			if !strings.Contains(frame, want) {
				t.Errorf("%s frame lacks %q:\n%s", target, want, frame)
			}
		}
		for _, s := range slos {
			row(t, frame, s.name)
		}
		// Burn since start: (1/2) / 0.01 = 50, the same fleet-wide as on
		// the only daemon.
		if f := row(t, frame, "submit-availability"); f[3] != "50.00" {
			t.Errorf("%s submit-availability row = %q, want burn(all) 50.00", target, f)
		}
	}
	if !strings.Contains(frames["gateway"], "BACKEND") || row(t, frames["gateway"], "top-0")[1] != "ok" {
		t.Errorf("gateway frame lacks a healthy top-0 backend row:\n%s", frames["gateway"])
	}
	if strings.Contains(frames["daemon"], "BACKEND") {
		t.Errorf("daemon frame has a backend table:\n%s", frames["daemon"])
	}
}
