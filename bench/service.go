package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// serviceInstance is the north-star path over real HTTP: two episimd
// cores (one worker each, durable: results persist to a cache dir)
// behind one gateway, all in this process on loopback listeners, and a
// CLOSED loop of two clients — each submits a sweep, streams its events
// to the terminal one, and only then submits the next, so a slower
// system is offered less load. Sweeps are tiny on purpose: the gateway,
// the daemons' HTTP, queueing, SSE and persistence are most of a sweep's
// time and the day loop little.
type serviceInstance struct {
	dir      string
	backends []*serviceBackend
	gw       *cluster.Gateway
	gwHTTP   *httptest.Server
	// specs are the sweeps the clients draw from, as many owned by one
	// backend as by the other; every population was built once during
	// set-up.
	specs []*episim.SweepSpec
	// firstID remembers one finished sweep per spec for the output check.
	firstID []string
	clients int
	seed    uint64
	// loads counts load phases, so each draws a different spec sequence.
	loads int
	// events counts GET .../events requests, to tell reconnects from
	// first connections.
	events atomic.Int64
	smoke  bool
}

type serviceBackend struct {
	name string
	core *server.Server
	http *httptest.Server
}

func quietLogger(component string) *obs.Logger {
	return obs.NewLogger(io.Discard, "text", obs.LevelError, component)
}

func newServiceGW(p params) (inst instance, err error) {
	dir, err := os.MkdirTemp(p.dir, "service-gw-")
	if err != nil {
		return nil, err
	}
	s := &serviceInstance{dir: dir, clients: 2, seed: p.seed, smoke: p.smoke}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var urls []string
	for _, name := range []string{"bench-a", "bench-b"} {
		core, err := server.New(server.Config{Workers: 1, Name: name, CacheDir: dir + "/" + name, Logger: quietLogger("episimd")})
		if err != nil {
			return nil, err
		}
		b := &serviceBackend{name: name, core: core, http: httptest.NewServer(core.Handler())}
		s.backends = append(s.backends, b)
		urls = append(urls, b.http.URL)
	}
	s.gw, err = cluster.New(cluster.Config{Backends: urls, Logger: quietLogger("episim-gw")})
	if err != nil {
		return nil, err
	}
	s.gwHTTP = httptest.NewServer(s.gw.Handler())

	// Draw candidate populations from the workload PRNG, run each once
	// (its cold build) and keep the first perBackend that every backend
	// owns. Ownership follows the gateway's content hash of the seeded
	// population, so without this one seed would put every population on
	// one daemon and the next spread them — a different workload under
	// the same name. A fixed number of candidates keeps set-up the same
	// work for every seed; more are drawn only if they do not suffice
	// (1 seed in 2000).
	const perBackend, candidates = 2, 16
	people, locations, days := 200, 50, 4
	if p.smoke {
		people, locations, days = 120, 30, 3
	}
	rng := rand.New(rand.NewPCG(p.seed, 0x5e71ce))
	owned := map[string][]*episim.SweepSpec{}
	ids := map[*episim.SweepSpec]string{}
	c := s.newClient(s.gwHTTP.URL)
	short := func() bool { return len(owned["bench-a"]) < perBackend || len(owned["bench-b"]) < perBackend }
	for tries := 0; tries < candidates || (short() && tries < 8*candidates); tries++ {
		spec := forkSpec(fmt.Sprintf("town-%d", tries), people, locations, 2, days, 0, 1, rng.Uint64()|1)
		sw, err := s.sweep(c, spec, nil, "")
		if err != nil {
			return nil, fmt.Errorf("set-up sweep: %w", err)
		}
		owner, _, _ := strings.Cut(sw.id, "-sw-")
		if len(owned[owner]) < perBackend {
			owned[owner] = append(owned[owner], spec)
			ids[spec] = sw.id
		}
	}
	for i := 0; i < perBackend; i++ {
		for _, b := range s.backends {
			if i >= len(owned[b.name]) {
				return nil, fmt.Errorf("backend %s owns %d of %d candidate populations, want %d", b.name, len(owned[b.name]), 8*candidates, perBackend)
			}
			spec := owned[b.name][i]
			s.specs = append(s.specs, spec)
			s.firstID = append(s.firstID, ids[spec])
		}
	}
	return s, nil
}

// newClient builds a client with a connection pool of its own.
func (s *serviceInstance) newClient(baseURL string) *client.Client {
	c := client.New(baseURL)
	c.HTTPClient = &http.Client{Transport: countEvents{&s.events, &http.Transport{}}}
	return c
}

// countEvents counts event-stream requests on their way out.
type countEvents struct {
	n    *atomic.Int64
	next http.RoundTripper
}

func (c countEvents) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/events") {
		c.n.Add(1)
	}
	return c.next.RoundTrip(r)
}

// sweepTiming is one sweep as its client saw it.
type sweepTiming struct {
	id                  string
	start               time.Time
	submit, first, done float64 // seconds from start
	cells               int
}

// sweep submits one spec and streams it to its terminal event. With a
// recorder it also leaves spans: the client-side submit and stream, and
// under them the daemon-side stages fetched from the trace endpoint.
func (s *serviceInstance) sweep(c *client.Client, spec *episim.SweepSpec, rec *recorder, traceID string) (sweepTiming, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t := sweepTiming{start: time.Now()}
	// begin and end are no-ops without a recorder, so the traced and the
	// plain sweep are the same code.
	begin := func(parent int, name string) int {
		if rec == nil {
			return 0
		}
		return rec.begin(traceID, parent, name)
	}
	end := func(id int) {
		if rec != nil {
			rec.end(id)
		}
	}
	root := begin(0, "client.sweep")
	sub := begin(root, "cluster.submit")
	ack, err := c.SubmitWith(ctx, spec, client.SubmitOptions{TraceID: traceID})
	end(sub)
	t.submit = time.Since(t.start).Seconds()
	if err != nil {
		end(root)
		return t, fmt.Errorf("submit: %w", err)
	}
	stream := begin(root, "client.stream")
	t.id = ack.ID
	terminals := 0
	var last client.Event
	err = c.Stream(ctx, ack.ID, 0, func(ev client.Event) error {
		if ev.Type == "cell" {
			if t.cells == 0 {
				t.first = time.Since(t.start).Seconds()
			}
			t.cells++
			return nil
		}
		terminals++
		last = ev
		return nil
	})
	t.done = time.Since(t.start).Seconds()
	end(stream)
	end(root)
	switch {
	case err != nil:
		return t, fmt.Errorf("stream %s: %w", ack.ID, err)
	case terminals != 1 || last.Type != "done":
		return t, fmt.Errorf("sweep %s ended with %d terminal events, last %q", ack.ID, terminals, last.Type)
	case t.cells != ack.Cells:
		return t, fmt.Errorf("sweep %s streamed %d cells of %d", ack.ID, t.cells, ack.Cells)
	}
	if rec != nil {
		if err := s.importDaemonTrace(ctx, c, rec, traceID, sub, stream, ack.ID); err != nil {
			return t, err
		}
	}
	return t, nil
}

// importDaemonTrace fetches the sweep's daemon-side timeline and
// re-parents it under the client's spans: admission happened inside the
// submit call, queue wait, run and result persistence while the client
// streamed. The executor's spans keep the layers executorLayer gives
// them, under the server's run span.
func (s *serviceInstance) importDaemonTrace(ctx context.Context, c *client.Client, rec *recorder, traceID string, submit, stream int, id string) error {
	reply, err := c.Trace(ctx, id)
	if err != nil {
		return fmt.Errorf("trace %s: %w", id, err)
	}
	run := stream
	var executor []obs.Span
	for _, sp := range reply.Spans {
		switch sp.Name {
		case "run":
			run = rec.add(traceID, stream, "ensemble.run", sp.Start, sp.End)
		case "admission":
			rec.add(traceID, submit, "server.admission", sp.Start, sp.End)
		case "queue_wait", "result_persist":
			rec.add(traceID, stream, "server."+sp.Name, sp.Start, sp.End)
			rec.count("server."+sp.Name+"_ms_p50", 1e3*sp.Seconds)
		default:
			executor = append(executor, sp)
		}
	}
	importSpans(rec, traceID, run, executor)
	return nil
}

// load runs the closed loop for d: every client submits, streams to the
// end, and submits again, drawing each sweep's spec from a PRNG stream
// of its own. (Rotating in a fixed order lets the two clients fall into
// lockstep, always or never meeting on the same daemon, and which of the
// two it is differs from run to run.) With a recorder every other sweep
// leaves spans.
func (s *serviceInstance) load(d time.Duration, minPerClient int, rec *recorder) *measurement {
	s.loads++
	m := &measurement{extra: map[string]float64{}}
	before := s.events.Load()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < s.clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.newClient(s.gwHTTP.URL)
			c.ClientID = fmt.Sprintf("bench-client-%d", ci)
			rng := rand.New(rand.NewPCG(s.seed, uint64(s.loads*s.clients+ci)))
			for n := 0; n < minPerClient || time.Since(start) < d; n++ {
				spec := s.specs[rng.IntN(len(s.specs))]
				traced := rec != nil && n%2 == 1
				sweepRec, traceID := (*recorder)(nil), ""
				if traced {
					sweepRec, traceID = rec, fmt.Sprintf("service-gw-%d-%d", ci, n)
				}
				sw, err := s.sweep(c, spec, sweepRec, traceID)
				mu.Lock()
				m.attempted += 2 + sw.cells // submit, stream, and each cell event
				switch {
				case err != nil:
					m.fail("sweep", err)
				case traced:
					m.traced = append(m.traced, sw.done)
				default:
					m.wall = append(m.wall, sw.done)
					m.second = append(m.second, sw.first)
					m.ops++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.busy = time.Since(start).Seconds()
	if rec != nil {
		// Traced sweeps completed too; throughput is not read from a
		// traced run, but keep ops honest.
		m.ops += len(m.traced)
	}
	m.extra["stream_reconnects"] = float64(s.events.Load()-before) - float64(len(m.wall)+len(m.traced))
	if p, ok := tailPercentile(len(m.wall)); ok {
		m.extra["done_tail_percentile"] = float64(p)
		m.extra["done_tail_s"] = percentile(m.wall, p)
	}
	return m
}

func (s *serviceInstance) measure(d time.Duration) *measurement {
	return s.load(d, minUnits, nil)
}

func (s *serviceInstance) trace(d time.Duration, rec *recorder) *measurement {
	s.probe(rec)
	m := s.load(d, 2, rec)
	rec.count("client.stream_reconnects", m.extra["stream_reconnects"])
	rec.count("service.sweeps_per_s", float64(m.ops)/m.busy)
	if tail, ok := m.extra["done_tail_s"]; ok {
		rec.count("service.done_tail_ms", 1e3*tail)
	} else {
		rec.count("service.done_tail_ms", 1e3*percentile(m.wall, 100))
	}
	return m
}

// probe measures the service layers one call at a time on an idle
// system with one client: submit latency straight to a daemon and
// through the gateway (their difference is the proxy's cost), the
// bytes of an event stream per cell, and the read endpoints.
func (s *serviceInstance) probe(rec *recorder) {
	n := 50
	if s.smoke {
		n = 3
	}
	spec := s.specs[0] // owned by backends[0]
	direct := s.newClient(s.backends[0].http.URL)
	gw := s.newClient(s.gwHTTP.URL)
	var directMS, gwMS []float64
	var lastDirect string
	for i := 0; i < n; i++ {
		if sw, err := s.sweep(direct, spec, nil, ""); err == nil {
			directMS = append(directMS, 1e3*sw.submit)
			lastDirect = sw.id
		}
		if sw, err := s.sweep(gw, spec, nil, ""); err == nil {
			gwMS = append(gwMS, 1e3*sw.submit)
		}
	}
	if len(directMS) == 0 || len(gwMS) == 0 {
		return // the missing metrics fail the run by name
	}
	rec.count("server.submit_ms_p50", median(directMS))
	rec.count("cluster.submit_ms_p50", median(gwMS))
	rec.count("cluster.proxy_overhead_ms", median(gwMS)-median(directMS))

	ctx := context.Background()
	timeGet := func(name string, f func() error) {
		for i := 0; i < n; i++ {
			id := rec.begin("service-probe", 0, name)
			err := f()
			rec.end(id)
			if err != nil {
				return
			}
		}
	}
	timeGet("server.result_get", func() error { _, err := direct.Result(ctx, lastDirect); return err })
	timeGet("server.metrics_scrape", func() error { _, err := httpGet(s.backends[0].http.URL + "/metrics"); return err })
	timeGet("cluster.stats_merge", func() error { _, err := gw.Stats(ctx); return err })
	if body, err := httpGet(s.backends[0].http.URL + "/v1/sweeps/" + lastDirect + "/events"); err == nil {
		rec.count("server.sse_bytes_per_cell", float64(len(body))/float64(len(spec.Cells())))
	}
	if body, err := httpGet(s.gwHTTP.URL + "/v1/stats"); err == nil {
		var st cluster.StatsReply
		if json.Unmarshal(body, &st) == nil {
			rec.count("cluster.spilled", float64(st.Gateway.Spilled))
		}
	}
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// results fetches the set-up sweep of every spec through the gateway.
func (s *serviceInstance) results() ([]*episim.SweepResult, error) {
	gw := s.newClient(s.gwHTTP.URL)
	var out []*episim.SweepResult
	for _, id := range s.firstID {
		res, err := gw.Result(context.Background(), id)
		if err != nil {
			return nil, fmt.Errorf("result %s via gateway: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// verify reads each spec's set-up sweep back through the gateway and
// straight from the daemon that owns it; the two must be the same
// result. (Every sweep's own terminal-event and cell-count checks ran in
// sweep.)
func (s *serviceInstance) verify() []check {
	viaGW, err := s.results()
	if err != nil {
		return []check{{"result via gateway", err}}
	}
	var cs []check
	for i, id := range s.firstID {
		owner, local, _ := strings.Cut(id, "-sw-")
		err := fmt.Errorf("no backend named %q", owner)
		for _, b := range s.backends {
			if b.name != owner {
				continue
			}
			var direct *episim.SweepResult
			direct, err = s.newClient(b.http.URL).Result(context.Background(), "sw-"+local)
			if err == nil && !equalJSON(direct, viaGW[i]) {
				err = fmt.Errorf("result of %s differs between gateway and %s", id, owner)
			}
		}
		cs = append(cs, check{"result via gateway = direct, " + id, err})
	}
	return cs
}

func (s *serviceInstance) digest() string {
	res, err := s.results()
	if err != nil {
		return "unreadable: " + err.Error()
	}
	return digestJSON(res)
}

func (s *serviceInstance) describe() map[string]any {
	pop := s.specs[0].Populations[0]
	return map[string]any{
		"backends": len(s.backends), "workers_per_backend": 1, "clients": s.clients, "loop": "closed",
		"populations": len(s.specs), "persons": pop.People, "locations": pop.Locations,
		"cells": len(s.specs[0].Cells()), "replicates": s.specs[0].Replicates, "days": s.specs[0].Days,
		"units": []string{"submit to terminal event", "submit to first cell"},
	}
}

func (s *serviceInstance) close() {
	if s.gwHTTP != nil {
		s.gwHTTP.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, b := range s.backends {
		b.http.Close()
		b.core.Close()
	}
	os.RemoveAll(s.dir)
}
