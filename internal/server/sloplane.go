package server

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/artifact"
	"repro/internal/obs"
)

// The SLO plane: a metrics-history ring self-snapshotting the daemon's
// counter/gauge/histogram families, an SLO evaluator computing
// multi-window error-budget burn rates from the ring, and a watchdog
// that captures pprof profiles into the artifact store when burn rate
// or queue depth crosses threshold. Everything is in-process — burn
// rates exist with nothing but curl, no external scraper required.

// SLOSpecs is episimd's declarative SLO set, shared with the gateway so
// the scalar names the specs reference and the names StatsHistoryPoint
// emits can never drift. queueWaitThreshold is the latency budget for
// the queue-wait objective in seconds (<=0 = 30s).
func SLOSpecs(queueWaitThreshold float64) []obs.SLOSpec {
	if queueWaitThreshold <= 0 {
		queueWaitThreshold = 30
	}
	return []obs.SLOSpec{
		{
			Name:      "submit-availability",
			Help:      "Sweep submissions that were accepted (parse/enqueue failures are errors).",
			Objective: 0.99,
			Total:     "submit_total",
			Bad:       "submit_errors",
		},
		{
			Name:             "queue-wait",
			Help:             "Sweeps that started executing within the queue-wait budget.",
			Objective:        0.99,
			Histogram:        "episimd_queue_wait_seconds",
			ThresholdSeconds: queueWaitThreshold,
		},
		{
			Name:      "event-delivery",
			Help:      "Event-stream sends that reached their subscriber.",
			Objective: 0.999,
			Total:     "events_total",
			Bad:       "events_send_errors",
		},
	}
}

// StatsHistoryPoint reduces one stats snapshot to a history-ring point:
// the metric-table rows with a history key — the scalar families the SLO
// specs reference plus the load gauges the ops console graphs — and the
// full histogram set. The gateway feeds its fleet ring through this same
// function on the merged reply, so a fleet-level burn rate is computed
// from exactly the per-daemon vocabulary.
func StatsHistoryPoint(st client.StatsReply, stale bool) obs.HistoryPoint {
	scalars := map[string]float64{}
	for _, m := range metrics {
		if m.history != "" {
			scalars[m.history] = m.value(&st)
		}
	}
	return obs.HistoryPoint{Time: time.Now(), Scalars: scalars, Hists: st.Histograms, Stale: stale}
}

// SLOPlane is one metrics-history ring and the latest SLO evaluation
// over it: the part of the SLO plane a daemon (over its own stats) and
// the gateway (over the merged fleet's) share, so /v1/slo and
// /v1/metrics/history are one handler pair and cannot drift.
type SLOPlane struct {
	instance string
	history  *obs.History
	specs    []obs.SLOSpec
	status   atomic.Pointer[[]obs.SLOStatus]
}

// NewSLOPlane re-evaluates specs over ring after every appended point
// (on the ring goroutine), then hands the point and the evaluation to
// onPoint (nil = nobody; the daemon arms its watchdog there). instance
// names the replies. The ring stays the caller's to start and stop.
func NewSLOPlane(instance string, ring *obs.History, specs []obs.SLOSpec,
	onPoint func(obs.HistoryPoint, []obs.SLOStatus)) *SLOPlane {
	p := &SLOPlane{instance: instance, history: ring, specs: specs}
	ring.OnAppend(func(pt obs.HistoryPoint) {
		sts := obs.EvalSLOs(ring, specs)
		p.status.Store(&sts)
		if onPoint != nil {
			onPoint(pt, sts)
		}
	})
	return p
}

// Statuses returns the latest evaluation (zeroed-but-complete specs
// before the first ring append, so /v1/slo and /metrics are stable from
// the first request).
func (p *SLOPlane) Statuses() []obs.SLOStatus {
	if sts := p.status.Load(); sts != nil {
		return *sts
	}
	return obs.EvalSLOs(p.history, p.specs)
}

// HandleSLO serves the current multi-window error-budget evaluation.
func (p *SLOPlane) HandleSLO(w http.ResponseWriter, r *http.Request) {
	sts := p.Statuses()
	stale := false
	for _, st := range sts {
		if st.Stale {
			stale = true
		}
	}
	writeJSON(w, http.StatusOK, client.SLOReply{Instance: p.instance, Stale: stale, SLOs: sts})
}

// HandleHistory serves the metrics ring: raw points plus precomputed
// SLO-window deltas/rates.
func (p *SLOPlane) HandleHistory(w http.ResponseWriter, r *http.Request) {
	rep := client.HistoryReply{
		Instance:    p.instance,
		IntervalSec: p.history.Interval().Seconds(),
		Points:      p.history.Snapshot(time.Time{}),
	}
	if rep.Points == nil {
		rep.Points = []obs.HistoryPoint{}
	}
	for _, d := range obs.DefaultSLOWindows() {
		if win, ok := p.history.Window(d); ok {
			if rep.Windows == nil {
				rep.Windows = map[string]obs.WindowStats{}
			}
			rep.Windows[obs.WindowLabel(d)] = win
		}
	}
	writeJSON(w, http.StatusOK, rep)
}

// sloPlane is the server's observability state beyond plain counters:
// the shared ring-and-evaluation plane plus watchdog bookkeeping.
type sloPlane struct {
	*SLOPlane

	burnThreshold     float64
	profileQueueDepth int
	profileCPUDur     time.Duration
	cooldown          time.Duration

	capturing   atomic.Bool
	profileMu   sync.Mutex
	lastCapture time.Time
	profileSeq  atomic.Int64
}

// watchdog runs on the ring goroutine after every appended point and
// its SLO evaluation: it arms the profiling watchdog. Capture itself
// runs on its own goroutine (a CPU profile blocks for its duration,
// which must not stall the collection cadence).
func (s *Server) watchdog(p obs.HistoryPoint, sts []obs.SLOStatus) {
	reason := ""
	for _, st := range sts {
		if st.Stale {
			continue // stale burn is old news, not a live incident
		}
		// Windows[0] is the short (fast-burn) window — the page-now one.
		if len(st.Windows) > 0 && st.Windows[0].BurnRate >= s.slo.burnThreshold {
			reason = fmt.Sprintf("slo %s burn %.1f over %s",
				st.Name, st.Windows[0].BurnRate, st.Windows[0].Window)
			break
		}
	}
	if reason == "" && s.slo.profileQueueDepth > 0 &&
		p.Scalars["queue_depth"] >= float64(s.slo.profileQueueDepth) {
		reason = fmt.Sprintf("queue depth %.0f", p.Scalars["queue_depth"])
	}
	if reason != "" {
		s.maybeCaptureProfiles(reason)
	}
}

// maybeCaptureProfiles starts one capture unless the evidence locker is
// unavailable (no disk store), a capture is already running, or the
// cooldown since the last one has not lapsed — a sustained burn must
// not fill the store with near-identical profiles.
func (s *Server) maybeCaptureProfiles(reason string) {
	if s.store.results == nil {
		return // profiles persist as artifacts; without a cache dir there is nowhere to keep them
	}
	s.slo.profileMu.Lock()
	if !s.slo.lastCapture.IsZero() && time.Since(s.slo.lastCapture) < s.slo.cooldown {
		s.slo.profileMu.Unlock()
		return
	}
	s.slo.lastCapture = time.Now()
	s.slo.profileMu.Unlock()
	if !s.slo.capturing.CompareAndSwap(false, true) {
		return
	}
	go s.captureProfiles(reason)
}

// captureProfiles records one CPU and one heap profile of the incident
// in progress and persists both as KindProfile artifacts in the result
// store — TTL-expired by the same GC pass that expires job records.
func (s *Server) captureProfiles(reason string) {
	defer s.slo.capturing.Store(false)
	seq := s.slo.profileSeq.Add(1)
	stamp := time.Now().UTC().Format("20060102t150405")
	put := func(which string, data []byte) {
		key := fmt.Sprintf("prof-%s-%03d-%s", stamp, seq, which)
		if err := s.store.results.Put(artifact.KindProfile, key, data); err != nil {
			s.log.Error("profile persist failed", "key", key, "err", err)
			return
		}
		s.log.Warn("watchdog captured profile", "key", key, "bytes", len(data), "reason", reason)
	}
	if cpu, err := obs.CaptureCPUProfile(s.slo.profileCPUDur); err != nil {
		// Busy profiler (someone attached to -pprof-addr) — their capture
		// covers the moment; the heap profile below still lands.
		s.log.Warn("watchdog cpu profile skipped", "reason", reason, "err", err)
	} else {
		put("cpu", cpu)
	}
	if heap, err := obs.CaptureHeapProfile(); err != nil {
		s.log.Error("watchdog heap profile failed", "err", err)
	} else {
		put("heap", heap)
	}
	s.profileCaptures.Add(1)
}

// handleUsage serves the per-client accounting ledger.
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	rows := s.usage.Snapshot()
	if rows == nil {
		rows = []obs.ClientUsage{}
	}
	writeJSON(w, http.StatusOK, client.UsageReply{Instance: s.name, Clients: rows})
}

// profileInfo is one captured profile as /v1/profiles lists it.
type profileInfo struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// handleProfiles lists the watchdog's captured profile artifacts (the
// CI forced-burn scenario asserts on this; operators fetch the bytes
// off the cache dir with the keys listed here).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	out := []profileInfo{}
	if s.store.results != nil {
		keys, err := s.store.results.Keys()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		for _, k := range keys {
			if k.Kind == artifact.KindProfile {
				out = append(out, profileInfo{Key: k.Key, Size: k.Size})
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"profiles": out})
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
