package cluster

import (
	"context"
	"net/http"

	"repro/client"
	"repro/internal/obs"
)

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
