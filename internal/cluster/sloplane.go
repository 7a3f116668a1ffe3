package cluster

import (
	"context"
	"net/http"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// The gateway's half of the SLO plane: a metrics-history ring fed by the
// merged fleet stats snapshot, evaluated against the same SLO specs each
// daemon uses. The scalar vocabulary is shared through
// server.StatsHistoryPoint, so a fleet burn rate is computed from
// exactly the per-daemon counters — summed, not re-derived.

// startSLOPlane builds and starts the fleet metrics ring. Each tick fans
// /v1/stats out to the fleet and appends the merged snapshot; points are
// marked stale when the whole fleet is unreachable or any backend's
// contribution was a last-known snapshot rather than a live read, which
// flows through window math into the SLO statuses — degraded burn rates
// say so instead of impersonating live ones.
func (g *Gateway) startSLOPlane(cfg Config) {
	g.history = obs.NewHistory(0, cfg.HistoryInterval, func() obs.HistoryPoint {
		st := g.collectStats(context.Background())
		stale := st.Gateway.FleetHealthy == 0
		for _, bs := range st.Backends {
			if bs.StatsStale {
				stale = true
			}
		}
		return server.StatsHistoryPoint(st.StatsReply, stale)
	})
	g.slo = server.NewSLOPlane("fleet", g.history, server.SLOSpecs(cfg.QueueWaitSLOSeconds), nil)
	g.history.Start()
}

// handleUsage fans /v1/usage out to every healthy backend and merges the
// ledgers per client: the same tenant submitting through the gateway
// lands on many backends (HRW by content key), so only the merged view
// answers "what has this client consumed fleet-wide" — the number a
// fleet-global admission policy would act on.
func (g *Gateway) handleUsage(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), statsTimeout)
	defer cancel()
	parts := make([][]obs.ClientUsage, len(g.backends))
	g.each(func(i int, b *backend) {
		if !b.healthy.Load() {
			return
		}
		rep, err := b.c.Usage(ctx)
		if err != nil {
			g.reportFailure(r.Context(), b, err)
			return
		}
		parts[i] = rep.Clients
	})
	merged := []obs.ClientUsage{}
	for _, rows := range parts {
		merged = obs.MergeUsage(merged, rows)
	}
	writeJSON(w, http.StatusOK, client.UsageReply{Instance: "fleet", Clients: merged})
}
