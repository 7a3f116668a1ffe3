package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// GatewayStats describes the routing tier itself.
type GatewayStats struct {
	UptimeSec       float64 `json:"uptime_sec"`
	BackendsTotal   int     `json:"backends_total"`
	BackendsHealthy int     `json:"backends_healthy"`
	// FleetHealthy is 1 while at least one backend is healthy, 0 when the
	// whole fleet is unreachable — in which case the aggregate stats below
	// are last-known snapshots, not live reads.
	FleetHealthy int `json:"fleet_healthy"`
	// Submitted counts accepted submissions; Rerouted the subset that
	// fell past their first-choice (cache-affine) backend — a high ratio
	// means churn is costing cache locality. Spilled counts submissions
	// deliberately diverted off a healthy-but-saturated owner by the
	// load-aware spill bound.
	Submitted int64 `json:"submitted"`
	Rerouted  int64 `json:"rerouted"`
	Spilled   int64 `json:"spilled"`
	// Throttled* count 429s from gateway admission control, by reason.
	ThrottledRate     int64 `json:"throttled_rate"`
	ThrottledInflight int64 `json:"throttled_inflight"`
	// TrackedClients is the number of clients with live admission state.
	TrackedClients int `json:"tracked_clients,omitempty"`
}

// BackendStatus is one backend's health and, when reachable, its own
// stats snapshot.
type BackendStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Routed counts submissions this gateway sent here; QueueDepth is
	// the gateway's current estimate (last probe + routed since), the
	// number the spill decision reads.
	Routed     int64              `json:"routed"`
	QueueDepth int                `json:"queue_depth"`
	LastError  string             `json:"last_error,omitempty"`
	Stats      *client.StatsReply `json:"stats,omitempty"`
	// StatsStale marks Stats as the last snapshot taken before the
	// backend became unreachable, kept so fleet aggregates degrade
	// gracefully instead of zeroing out. StatsUpdated accompanies a stale
	// snapshot with the time it was actually taken, so an operator can
	// tell a seconds-old degradation from an hours-old one.
	StatsStale   bool       `json:"stats_stale,omitempty"`
	StatsUpdated *time.Time `json:"stats_updated,omitempty"`
	// StatsError is set when the stats fetch itself failed (the backend
	// may still be serving sweeps).
	StatsError string `json:"stats_error,omitempty"`
}

// StatsReply is the gateway's /v1/stats: the fleet-wide aggregate in the
// single-daemon shape (an episimd client pointed at the gateway decodes
// it unchanged), plus gateway and per-backend detail.
type StatsReply struct {
	client.StatsReply
	Gateway  GatewayStats    `json:"gateway"`
	Backends []BackendStatus `json:"backends"`
}

// statsTimeout bounds the whole stats fan-out: metrics scrapes have
// their own deadlines (Prometheus defaults to 10s), so a slow backend
// must cost less than that, not controlTimeout.
const statsTimeout = 5 * time.Second

// collectStats fans /v1/stats out to every healthy backend and
// aggregates. Ejected backends are not dialed — a black-holed host
// would stall every scrape for the full timeout exactly while its
// health is most interesting — but their last successful snapshot still
// folds into the aggregate (marked stale), so a fleet-wide outage
// reports the last-known state under fleet_healthy=0 instead of
// collapsing every counter to zero.
func (g *Gateway) collectStats(ctx context.Context) StatsReply {
	ctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	healthy := g.healthyCount()
	fleetHealthy := 0
	if healthy > 0 {
		fleetHealthy = 1
	}
	out := StatsReply{
		Gateway: GatewayStats{
			UptimeSec:         time.Since(g.started).Seconds(),
			BackendsTotal:     len(g.backends),
			BackendsHealthy:   healthy,
			FleetHealthy:      fleetHealthy,
			Submitted:         g.submitted.Load(),
			Rerouted:          g.rerouted.Load(),
			Spilled:           g.spilled.Load(),
			ThrottledRate:     g.throttledRate.Load(),
			ThrottledInflight: g.throttledInflight.Load(),
			TrackedClients:    g.admit.trackedClients(),
		},
		Backends: make([]BackendStatus, len(g.backends)),
	}
	g.each(func(i int, b *backend) {
		bs := &out.Backends[i]
		*bs = BackendStatus{
			Name:       b.identity(),
			URL:        b.url,
			Healthy:    b.healthy.Load(),
			Routed:     b.routed.Load(),
			QueueDepth: b.queueDepthEstimate(),
			LastError:  b.lastError(),
		}
		if bs.Healthy {
			st, err := b.c.Stats(ctx)
			if err == nil {
				b.lastStats.Store(&st)
				b.lastStatsAt.Store(time.Now().UnixNano())
				bs.Stats = &st
				return
			}
			bs.StatsError = err.Error()
		} else {
			bs.StatsError = "unreachable (ejected); no stats seen yet"
		}
		// Ejected, or healthy per the prober but the fetch failed: degrade
		// to the last snapshot rather than dropping the backend from the
		// aggregate.
		if last := b.lastStats.Load(); last != nil {
			bs.Stats, bs.StatsStale, bs.StatsUpdated = last, true, b.statsTakenAt()
			if !bs.Healthy {
				bs.StatsError = "unreachable (ejected); last-known stats shown"
			}
		}
	})
	for _, bs := range out.Backends {
		if bs.Stats != nil {
			server.MergeStats(&out.StatsReply, *bs.Stats)
		}
	}
	return out
}

// statsTakenAt returns when the last successful stats snapshot was taken
// (nil before any), pointer-shaped for the omitempty reply field.
func (b *backend) statsTakenAt() *time.Time {
	ns := b.lastStatsAt.Load()
	if ns == 0 {
		return nil
	}
	t := time.Unix(0, ns)
	return &t
}

// handleStats serves the fleet-aggregated stats snapshot.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.collectStats(r.Context()))
}

// promHeader writes one metric's HELP/TYPE block. Per-backend series
// share a name, so the block is written once before all of them.
func promHeader(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// handleMetrics renders the aggregate in the per-instance Prometheus
// vocabulary (episimd_*, summed across backends — one scrape target for
// the fleet) followed by the gateway's own episim_gw_* series, its
// proxy-latency histogram, and Go runtime metrics.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := g.collectStats(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	server.WriteMetrics(w, st.StatsReply)
	// Fleet-level SLO burn, from the gateway's own ring over the merged
	// stats — the same episim_slo_* vocabulary each daemon exposes.
	obs.WriteSLOProm(w, g.slo.Statuses())
	for _, m := range []struct {
		name, kind, help string
		val              float64
	}{
		{"episim_gw_uptime_seconds", "gauge", "Seconds since the gateway started.", st.Gateway.UptimeSec},
		{"episim_gw_backends", "gauge", "Backends configured.", float64(st.Gateway.BackendsTotal)},
		{"episim_gw_backends_healthy", "gauge", "Backends currently passing health probes.", float64(st.Gateway.BackendsHealthy)},
		{"episim_gw_fleet_healthy", "gauge", "1 while at least one backend is healthy; 0 means aggregates are last-known snapshots.", float64(st.Gateway.FleetHealthy)},
		{"episim_gw_submissions_total", "counter", "Submissions accepted by some backend.", float64(st.Gateway.Submitted)},
		{"episim_gw_submissions_rerouted_total", "counter", "Submissions that fell past their cache-affine first choice.", float64(st.Gateway.Rerouted)},
		{"episim_gw_spilled_total", "counter", "Submissions diverted off a healthy-but-saturated owner by the spill bound.", float64(st.Gateway.Spilled)},
	} {
		promHeader(w, m.name, m.kind, m.help)
		fmt.Fprintf(w, "%s %s\n", m.name, strconv.FormatFloat(m.val, 'g', -1, 64))
	}
	promHeader(w, "episim_gw_throttled_total", "counter", "429s from gateway admission control, by reason.")
	fmt.Fprintf(w, "episim_gw_throttled_total{reason=\"rate\"} %d\n", st.Gateway.ThrottledRate)
	fmt.Fprintf(w, "episim_gw_throttled_total{reason=\"inflight\"} %d\n", st.Gateway.ThrottledInflight)
	promHeader(w, "episim_gw_backend_up", "gauge", "1 while the backend passes health probes.")
	for _, bs := range st.Backends {
		up := 0
		if bs.Healthy {
			up = 1
		}
		fmt.Fprintf(w, "episim_gw_backend_up{backend=%q,url=%q} %d\n", bs.Name, bs.URL, up)
	}
	promHeader(w, "episim_gw_backend_routed_total", "counter", "Submissions this gateway routed to the backend.")
	for _, bs := range st.Backends {
		fmt.Fprintf(w, "episim_gw_backend_routed_total{backend=%q} %d\n", bs.Name, bs.Routed)
	}
	promHeader(w, "episim_gw_backend_queue_depth", "gauge", "The gateway's current queue-depth estimate for the backend.")
	for _, bs := range st.Backends {
		fmt.Fprintf(w, "episim_gw_backend_queue_depth{backend=%q} %d\n", bs.Name, bs.QueueDepth)
	}
	obs.WriteHistogramsProm(w, g.proxyHist.Snapshots())
	obs.WriteRuntimeMetrics(w)
}
