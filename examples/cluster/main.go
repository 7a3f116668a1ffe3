// Example cluster boots two in-process episimd backends behind an
// episim-gw gateway and demonstrates the scale-out properties:
//
//  1. named-backend identity — each backend's routing identity is the
//     name its daemon reports on /healthz (episimd -name), so job ids
//     read "node-0-sw-000001" and the backend list can be reordered or
//     re-addressed without breaking ids or moving keys;
//  2. content-key affinity — two submissions of the same sweep route to
//     the same backend, and the second performs zero placement builds
//     (the routed backend's cache is warm);
//  3. transparent proxying — the client is the ordinary episimd client
//     pointed at the gateway; streams, results and stats just work;
//  4. failover — killing the routed backend re-routes the next
//     submission to the survivor with no client-visible change;
//  5. hardening knobs — the gateway here also runs with load-aware
//     spill (SpillQueueDepth) and per-client admission control armed;
//     the final stats line shows their counters (zero in this calm
//     walkthrough — they exist to clip real bursts);
//  6. traced submission — the client pins a trace id (Client.TraceID →
//     X-Episim-Trace-Id), the gateway forwards it to the owning
//     backend, and the job's span timeline reads back through the
//     gateway with that id and per-stage timings (the same data
//     `episim sweep -server URL -trace ID` prints).
//
// Run with:
//
//	go run ./examples/cluster
//
// In production each backend is its own `episimd -name ...` process (or
// machine) and the gateway is
// `episim-gw -backends http://a:8321,http://b:8321 -spill-queue-depth 8
// -submit-rate 50 -max-inflight-per-client 32`.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	// Two share-nothing backends, each with its own cache and its own
	// name — the name, not the list position, is its identity.
	var urls []string
	var srvs []*http.Server
	var cores []*server.Server
	for i := 0; i < 2; i++ {
		core, err := server.New(server.Config{Workers: 4, MaxActive: 2, Name: fmt.Sprintf("node-%d", i)})
		if err != nil {
			log.Fatal(err)
		}
		defer core.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: core.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		urls = append(urls, "http://"+ln.Addr().String())
		srvs = append(srvs, hs)
		cores = append(cores, core)
	}

	// The gateway: stateless, routes by placement content key, spills
	// off a saturated owner, and throttles unruly clients.
	gw, err := cluster.New(cluster.Config{
		Backends:             urls,
		ProbeInterval:        200 * time.Millisecond,
		FailAfter:            1,
		SpillQueueDepth:      8,  // divert when the owner has >8 sweeps queued
		SubmitRate:           50, // per-client sweeps/sec, burst 2×
		MaxInflightPerClient: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ghs := &http.Server{Handler: gw.Handler()}
	go ghs.Serve(gln)
	defer ghs.Close()
	gwURL := "http://" + gln.Addr().String()
	fmt.Printf("episim-gw on %s fronting %d backends\n", gwURL, len(urls))

	fleetStats := func() cluster.StatsReply {
		resp, err := http.Get(gwURL + "/v1/stats")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var st cluster.StatsReply
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			log.Fatal(err)
		}
		return st
	}

	// The ordinary episimd client, pointed at the gateway. ClientID keys
	// the gateway's admission quotas (and Submit honors its 429
	// Retry-After automatically).
	c := client.New(gwURL)
	c.ClientID = "example-tenant"
	// A fixed trace id rides every request as X-Episim-Trace-Id; the
	// gateway forwards it, the owning backend stamps it on the job, and
	// it comes back on acks, statuses, terminal events, and log lines.
	c.TraceID = "t-cluster-example"
	ctx := context.Background()
	spec := &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{State: "WY", Scale: 600}},
		Placements:  []episim.SweepPlacement{{Strategy: "GP", SplitLoc: true, Ranks: 8}},
		Replicates:  4,
		Days:        30,
		Seed:        7,
	}
	spec.Normalize()

	run := func(tag string) string {
		ack, err := c.Submit(ctx, spec)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Stream(ctx, ack.ID, 0, func(client.Event) error { return nil }); err != nil {
			log.Fatal(err)
		}
		st := fleetStats()
		routed := ""
		for _, b := range st.Backends {
			routed += fmt.Sprintf(" %s=%d", b.Name, b.Routed)
		}
		fmt.Printf("%s: %s done; routed%s; fleet placement builds so far: %d\n",
			tag, ack.ID, routed, st.PlacementCache.Builds)
		return ack.ID
	}

	// 1 + 2 + 3: affinity under named identity. Same spec twice → same
	// named backend (the job id says which), one build total.
	run("first submission ")
	id2 := run("second submission") // same backend, zero new builds

	// 6: the traced submission's span timeline, read back through the
	// gateway — byte-for-byte what the owning backend recorded.
	tr, err := c.Trace(ctx, id2)
	if err != nil {
		log.Fatal(err)
	}
	var simSecs float64
	sims := 0
	for _, sp := range tr.Spans {
		if sp.Name == "sim" {
			simSecs += sp.Seconds
			sims++
		}
	}
	fmt.Printf("trace %s: %d spans over %.3fs wall; %d sim spans totalling %.3fs\n",
		tr.TraceID, len(tr.Spans), tr.WallSeconds, sims, simSecs)

	// 4: failover. Kill the backend holding the warm cache; the next
	// submission re-routes to the survivor and still completes (it
	// rebuilds the placement there — one more fleet build, not an error).
	killed := -1
	for i, b := range fleetStats().Backends {
		if b.Routed > 0 {
			killed = i
		}
	}
	fmt.Printf("killing routed backend node-%d...\n", killed)
	srvs[killed].Close()
	cores[killed].Close()
	time.Sleep(600 * time.Millisecond) // a few probe rounds: prober ejects it
	run("after failover   ")

	// 5: the hardening counters (all zero here — nothing was saturated
	// or throttled — but this is what to alert on in production).
	st := fleetStats()
	fmt.Printf("gateway counters: spilled=%d throttled_rate=%d throttled_inflight=%d rerouted=%d\n",
		st.Gateway.Spilled, st.Gateway.ThrottledRate, st.Gateway.ThrottledInflight, st.Gateway.Rerouted)
}
