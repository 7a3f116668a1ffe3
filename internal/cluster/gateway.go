// Package cluster turns a fleet of share-nothing episimd instances into
// one horizontally-scaled sweep service. The gateway (episim-gw) is
// stateless: it computes each submission's dominant placement content
// key — the same key internal/ensemble caches builds under — and routes
// it via rendezvous hashing over the healthy backend set, so repeat
// submissions of the same (population, placement) always land on the
// instance whose memory and disk caches already hold the build. Job ids
// issued by the gateway embed the backend's *name* ("node-0-sw-000001"),
// discovered from each daemon's /healthz, so status, result, cancel and
// event-stream requests proxy straight to the owning backend with no
// routing table anywhere — and the -backends list can be reordered,
// grown, or re-addressed without invalidating issued ids or moving keys,
// because both routing and identity hang off the name, not the position.
//
// Routing is load-aware: when the HRW owner's queue depth (reported by
// /healthz and tracked between probes) exceeds the configured spill
// bound, the submission spills to the HRW runner-up even while the owner
// is healthy — one cold placement build traded for tail latency.
// Admission control throttles each client (X-Episim-Client header, else
// remote address) with a token bucket and an in-flight sweep cap,
// answering 429 + Retry-After so a burst from one tenant cannot starve
// the fleet.
//
// An active prober ejects backends whose /healthz stops answering (and
// re-admits them when it recovers); submissions re-route down the HRW
// preference order, so a dead backend costs its keys one cold cache, not
// an outage. /v1/stats and /metrics aggregate the whole fleet, degrading
// to last-known backend snapshots (flagged by the fleet_healthy gauge)
// rather than zeros when backends are unreachable.
package cluster

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/obs"
)

// Config sizes one gateway.
type Config struct {
	// Backends are the episimd base URLs, e.g. "http://10.0.0.1:8321".
	// Order does not matter: a backend's identity is the name its daemon
	// reports on /healthz (episimd -name), so the list can be reordered
	// or extended freely. A daemon that reports no name falls back to its
	// positional identity ("b0", "b1", ...) — only then does order count.
	Backends []string
	// ProbeInterval is the /healthz polling cadence (0 = 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (0 = 2s).
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures eject a backend
	// (0 = 2). One successful probe re-admits it.
	FailAfter int
	// SpillQueueDepth enables load-aware spill: when the HRW owner's
	// queue depth exceeds this bound, the submission routes to the next
	// backend in HRW order whose queue is within it, even while the owner
	// is healthy (0 = disabled; pure content-key affinity).
	SpillQueueDepth int
	// MaxInflightPerClient caps sweeps a single client may have
	// unfinished across the fleet (0 = unlimited). Excess submissions
	// get 429 + Retry-After.
	MaxInflightPerClient int
	// SubmitRate is the per-client sustained submission rate in sweeps
	// per second (0 = unlimited), enforced by a token bucket of
	// SubmitBurst capacity.
	SubmitRate float64
	// SubmitBurst is the token-bucket capacity (0 = max(1, 2×SubmitRate)).
	SubmitBurst int
	// Logger receives the gateway's log lines (nil = slog's text lines on
	// stderr at info level).
	Logger *obs.Logger
}

// backend is one episimd instance as the gateway sees it.
type backend struct {
	index    int
	fallback string // positional identity "b0", used until a name is known
	url      string
	// c makes the gateway's typed calls (stats, usage, list, status,
	// health); forward relays everything the client's bytes pass through.
	c *client.Client

	healthy atomic.Bool
	routed  atomic.Int64 // submissions this backend accepted

	// lastStats is the most recent successful /v1/stats snapshot, kept
	// so fleet aggregates degrade to last-known values instead of zeros
	// while the backend is unreachable; lastStatsAt (unix nanos) is when
	// it was taken, surfaced as stats_updated whenever the snapshot is
	// served stale.
	lastStats   atomic.Pointer[client.StatsReply]
	lastStatsAt atomic.Int64

	// Prober state (prober goroutine + failure reports from proxying).
	probeMu     sync.Mutex
	name        string // discovered via /healthz ("" until first contact)
	lastRefused string // last name refused by registerName (log once, not per probe)
	consecFails int
	lastErr     string
	// unhealthySince is when the backend was last ejected (zero while
	// healthy); admission's ledger forgiveness keys off its duration so
	// a transient blip doesn't erase still-running jobs from the books.
	unhealthySince time.Time
	// probedDepth is the queue depth from the last successful probe;
	// sinceProbe counts submissions this gateway routed here after it, so
	// the spill decision sees bursts the next probe hasn't yet.
	probedDepth int
	sinceProbe  int
}

// Gateway fronts N episimd backends behind the episimd HTTP API.
type Gateway struct {
	backends []*backend
	httpc    *http.Client

	probeInterval time.Duration
	probeTimeout  time.Duration
	failAfter     int
	spillDepth    int

	// byName maps discovered backend names to backends for id
	// resolution; fallback positional names resolve by index.
	nameMu sync.RWMutex
	byName map[string]*backend

	admit *admission
	log   *obs.Logger

	// proxyHist distributes the round-trip latency of relayed requests
	// (request out to response headers in) per backend — the gateway's own
	// contribution to tail latency, separable from the backends'
	// histograms. Its typed calls (stats, usage, list, status, health) are
	// not observed.
	proxyHist *obs.HistogramVec

	started time.Time
	stop    chan struct{}
	done    chan struct{}

	submitted atomic.Int64 // submissions accepted by some backend
	rerouted  atomic.Int64 // submissions that fell past their first choice
	spilled   atomic.Int64 // submissions diverted off a healthy owner by load

	throttledRate     atomic.Int64 // 429s from the per-client token bucket
	throttledInflight atomic.Int64 // 429s from the per-client in-flight cap
}

// New builds a gateway over cfg.Backends, performs one synchronous probe
// round to discover backend names (bounded by ProbeTimeout), and starts
// the background prober. Backends that answer the first probe start
// healthy and named; the rest start ejected and join the moment a probe
// reaches them.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NewLogger(os.Stderr, "text", obs.LevelInfo, "episim-gw")
	}
	g := &Gateway{
		// No global Timeout: event streams run as long as sweeps do.
		httpc:         &http.Client{},
		probeInterval: cfg.ProbeInterval,
		probeTimeout:  cfg.ProbeTimeout,
		failAfter:     cfg.FailAfter,
		spillDepth:    cfg.SpillQueueDepth,
		byName:        map[string]*backend{},
		admit:         newAdmission(cfg.SubmitRate, cfg.SubmitBurst, cfg.MaxInflightPerClient),
		log:           log,
		proxyHist: obs.NewHistogramVec("episim_gw_proxy_seconds",
			"Backend round-trip latency of requests the gateway relays, per backend.", "backend", nil),
		started: time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	seen := map[string]bool{}
	for i, u := range cfg.Backends {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: backend %d has an empty URL", i)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate backend %s", u)
		}
		seen[u] = true
		g.backends = append(g.backends, &backend{index: i, fallback: fmt.Sprintf("b%d", i), url: u,
			c: &client.Client{BaseURL: u, HTTPClient: g.httpc}})
	}
	// Synchronous first round: names (and initial health) are known
	// before the gateway serves, so the very first submission routes by
	// name and can be acked with a name-bearing id.
	g.probeAll()
	go g.probeLoop()
	return g, nil
}

// Close stops the health prober. In-flight proxied requests finish on
// their own connections.
func (g *Gateway) Close() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
		<-g.done
	}
}

// Handler returns the gateway's HTTP API — the episimd surface, served
// for the whole fleet:
//
//	POST   /v1/sweeps             route by placement content key (load-
//	                              aware), 202 + {id}; 429 when throttled
//	GET    /v1/sweeps             merged job list across backends
//	GET    /v1/sweeps/{id}        proxied to the owning backend
//	GET    /v1/sweeps/{id}/result verbatim bytes from the owning backend
//	GET    /v1/sweeps/{id}/trace  verbatim span timeline from the owner
//	GET    /v1/sweeps/{id}/events proxied SSE/NDJSON stream (?from= and
//	                              Last-Event-ID replay preserved)
//	POST   /v1/sweeps/{id}/cancel proxied cancel
//	DELETE /v1/sweeps/{id}        same
//	GET    /v1/stats              fleet-aggregated stats + per-backend detail
//	GET    /v1/usage              per-client usage, merged across backends
//	GET    /metrics               fleet-aggregated Prometheus metrics
//	GET    /healthz               gateway readiness (503 when no backend is)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", g.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", g.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", g.withBackend(g.proxyStatus))
	mux.HandleFunc("GET /v1/sweeps/{id}/result", g.withBackend(g.proxyResult))
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", g.withBackend(g.proxyTrace))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", g.withBackend(g.proxyEvents))
	mux.HandleFunc("POST /v1/sweeps/{id}/cancel", g.withBackend(g.proxyCancel))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", g.withBackend(g.proxyCancel))
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/usage", g.handleUsage)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	return mux
}

// identity is the backend's routing name: the name its daemon reported
// on /healthz, or the positional fallback until one is known (or when
// the daemon is anonymous, or its name collided with another backend's).
func (b *backend) identity() string {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	if b.name != "" {
		return b.name
	}
	return b.fallback
}

// registerName adopts a backend's /healthz-reported name as its routing
// identity. Empty, malformed, and colliding names are refused (with a
// log line — both are operator errors worth seeing), keeping whatever
// identity the backend already routes under; a valid changed name
// re-registers, which orphans ids issued under the old one.
func (g *Gateway) registerName(b *backend, name string) {
	name = strings.TrimSpace(name)
	// An empty name is no information, not a rename: a proxy's JSON
	// error body parses to Instance "" while the daemon restarts, and
	// un-registering the discovered name on it would orphan every
	// outstanding id issued under that name.
	if name == "" {
		return
	}
	b.probeMu.Lock()
	prev := b.name
	b.probeMu.Unlock()
	keeping := b.fallback // what this backend keeps using if name is refused
	if prev != "" {
		keeping = prev
	}
	// refuse logs a refusal once per distinct refused name — the prober
	// re-reports a persistent misconfiguration every round, and 43k
	// identical lines a day would drown the eject/recover signal.
	refuse := func(msg string, kvs ...any) {
		b.probeMu.Lock()
		repeat := b.lastRefused == name
		b.lastRefused = name
		b.probeMu.Unlock()
		if !repeat {
			g.log.Warn(msg, kvs...)
		}
	}
	// The shared validator also refuses the whole "b<number>" shape —
	// positional identities are the gateway's, and accepting one (even a
	// backend's own current slot) would make its ids resolve by position
	// after the next list reorder.
	if err := client.ValidateInstanceName(name); err != nil {
		refuse("backend reports unusable name; keeping current identity",
			"url", b.url, "err", err, "keeping", keeping)
		return
	}
	if name == prev {
		return
	}
	g.nameMu.Lock()
	defer g.nameMu.Unlock()
	if other, taken := g.byName[name]; taken && other != b {
		refuse("backend reports already-claimed name; keeping current identity",
			"url", b.url, "name", name, "claimed_by", other.url, "keeping", keeping)
		return
	}
	g.byName[name] = b
	if prev != "" && g.byName[prev] == b {
		delete(g.byName, prev)
		g.log.Warn("backend renamed; ids issued under the old name no longer resolve",
			"url", b.url, "old", prev, "new", name)
	}
	b.probeMu.Lock()
	b.name = name
	b.probeMu.Unlock()
}

// gatewayID turns a backend-local job id into the id the gateway issues
// for it, "node-0-sw-000001" under prefix "node-0": the submit ack, the
// status and cancel replies, the merged list and terminal events all
// rewrite through it. finished settles the admission ledger: a reply
// proving the job over frees its client's in-flight slot with no extra
// RPC.
func (g *Gateway) gatewayID(prefix, local string, finished bool) string {
	id := prefix + "-" + local
	if finished {
		g.admit.observeTerminal(id)
	}
	return id
}

// resolveID splits a gateway job id back into its backend and the
// backend-local id. The backend-local part always starts with "sw-", so
// the name is everything before the last "-sw-" — names may themselves
// contain dashes. Ids issued under a positional fallback identity
// ("b0-sw-000001", including every id from before this gateway learned
// names) resolve by position when no backend claims the name.
func (g *Gateway) resolveID(id string) (*backend, string, bool) {
	i := strings.LastIndex(id, "-sw-")
	if i <= 0 {
		return nil, "", false
	}
	name, local := id[:i], id[i+1:]
	if len(local) <= len("sw-") {
		return nil, "", false
	}
	g.nameMu.RLock()
	b, ok := g.byName[name]
	g.nameMu.RUnlock()
	if ok {
		return b, local, true
	}
	// Positional fallback: exactly the shape ValidateInstanceName
	// reserves (shared predicate, so a registered name can never
	// double-parse as a position — Atoi alone would accept "b+1").
	if !client.IsPositionalIdentity(name) {
		return nil, "", false
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n >= len(g.backends) {
		return nil, "", false
	}
	return g.backends[n], local, true
}

// withBackend resolves the {id} path value before invoking h. The
// prefix handed to h is the identity part of the id the CLIENT
// presented — proxied replies rebuild ids under it, so an id issued
// before the gateway learned the backend's name ("b0-sw-000001") keeps
// reading back exactly as issued even after discovery renames the
// backend's current identity.
func (g *Gateway) withBackend(h func(http.ResponseWriter, *http.Request, *backend, string, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		b, local, ok := g.resolveID(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown sweep %q", id)
			return
		}
		h(w, r, b, id[:len(id)-len(local)-1], local)
	}
}

// each runs fn on every backend concurrently and returns once all calls
// have: the one fan-out behind the probe round, fleet stats, usage and
// the merged job list. fn may write only backend i's slot of whatever it
// fills.
func (g *Gateway) each(fn func(i int, b *backend)) {
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, b)
		}()
	}
	wg.Wait()
}

// healthyCount tallies backends currently marked healthy.
func (g *Gateway) healthyCount() int {
	n := 0
	for _, b := range g.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// rankFor orders backends by HRW preference for key, healthy ones
// first. The hash input is each backend's *identity* (its name), not its
// URL: a renamed list order or a backend moved to a new address keeps
// every key's owner. Unhealthy backends stay in the list (after every
// healthy one, still in HRW order) as a last resort: if the prober is
// wrong or the whole fleet is flapping, trying beats refusing.
func (g *Gateway) rankFor(key string) []*backend {
	ids := make([]string, len(g.backends))
	for i, b := range g.backends {
		ids[i] = b.identity()
	}
	order := rankNodes(key, ids)
	out := make([]*backend, 0, len(order))
	for _, i := range order {
		if g.backends[i].healthy.Load() {
			out = append(out, g.backends[i])
		}
	}
	for _, i := range order {
		if !g.backends[i].healthy.Load() {
			out = append(out, g.backends[i])
		}
	}
	return out
}

// handleHealthz reports gateway readiness: ready while at least one
// backend is, with per-backend identity so operators can see the names
// the fleet routes by.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := g.healthyCount()
	status, code := "ok", http.StatusOK
	if healthy == 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	type bstat struct {
		Name    string `json:"name"`
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	bs := make([]bstat, len(g.backends))
	for i, b := range g.backends {
		bs[i] = bstat{Name: b.identity(), URL: b.url, Healthy: b.healthy.Load()}
	}
	writeJSON(w, code, map[string]any{
		"status":           status,
		"backends_total":   len(g.backends),
		"backends_healthy": healthy,
		"backends":         bs,
		"uptime_sec":       time.Since(g.started).Seconds(),
	})
}
