package server

import (
	"net"
	"net/http"

	"repro/client"
	"repro/internal/obs"
)

// handleUsage serves the per-client accounting ledger.
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	rows := s.usage.Snapshot()
	if rows == nil {
		rows = []obs.ClientUsage{}
	}
	WriteJSON(w, http.StatusOK, client.UsageReply{Instance: s.name, Clients: rows})
}

// ClientID is the fleet's one tenant identity rule: the X-Episim-Client
// header when present (forwarded by a gateway, set by repro/client when
// ClientID is configured), else the remote host. A daemon accounts usage
// by it and gateway admission throttles on it.
func ClientID(r *http.Request) string {
	if k := r.Header.Get("X-Episim-Client"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
