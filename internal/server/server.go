package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	episim "repro"
	"repro/client"
	"repro/internal/artifact"
	"repro/internal/obs"
)

// Config sizes one episimd instance.
type Config struct {
	// Workers is the shared worker-slot pool bounding total simulation
	// parallelism across every concurrent sweep (0 = GOMAXPROCS).
	Workers int
	// MaxActive bounds how many sweeps execute at once; later
	// submissions queue FIFO (0 = 2).
	MaxActive int
	// CacheBytes is the LRU bound on retained populations, placements and
	// fork-point checkpoints shared across requests (0 = unbounded).
	CacheBytes int64
	// CacheDir, when non-empty, makes the daemon durable: each cache gains
	// a disk tier (CacheDir/populations, /placements, /checkpoints) so
	// restarts skip partitioning and prefix days, and finished sweeps spill
	// to CacheDir/results so GET /result survives a restart.
	CacheDir string
	// Retain caps finished sweeps held in the memory index (0 =
	// unbounded). Evicted sweeps stay readable from the disk store.
	Retain int
	// ResultTTL evicts finished sweeps from the memory index once they
	// are this old (0 = never). With a cache dir it also expires their
	// disk records: result artifacts not read within the TTL are removed
	// by the background GC pass.
	ResultTTL time.Duration
	// CheckpointTTL expires on-disk fork-point checkpoints not read
	// within this age (0 = never). Checkpoints are the largest artifacts
	// the cache dir holds and are only worth keeping while their sweep
	// spec is iterated on, so they get their own horizon instead of
	// competing with hot placements under StoreMaxBytes. Requires
	// CacheDir.
	CheckpointTTL time.Duration
	// Name identifies this instance (reported by /healthz; a gateway
	// fronting several instances shows it). Empty = anonymous.
	Name string
	// StoreMaxBytes bounds the on-disk placement store: a background LRU
	// sweep prunes least-recently-used placement artifacts past the bound
	// (0 = unbounded). Requires CacheDir.
	StoreMaxBytes int64
	// Logger receives the daemon's log lines (nil = slog's text lines on
	// stderr at info level).
	Logger *obs.Logger
}

// defaultLogger is the stderr text logger used when none is configured.
func defaultLogger() *obs.Logger {
	return obs.NewLogger(os.Stderr, "text", obs.LevelInfo, "episimd")
}

// Server is the episimd service core: job store, scheduler, shared
// caches, and the HTTP handler over them.
type Server struct {
	store   *store
	sched   *scheduler
	cache   *episim.SweepCache
	started time.Time

	name     string
	cacheDir string
	log      *obs.Logger

	// Latency histograms, fed from request handling and from job span
	// observers (one code path records both the per-job timeline and the
	// daemon-wide distribution, so the two can never disagree).
	submitHist    *obs.Histogram
	queueWaitHist *obs.Histogram
	plBuildHist   *obs.Histogram
	cellHist      *obs.Histogram
	persistHist   *obs.Histogram

	// Request outcomes, the numerators and denominators of the
	// availability objectives episim-top evaluates.
	submitsTotal    atomic.Int64
	submitErrors    atomic.Int64
	eventsSent      atomic.Int64
	eventSendErrors atomic.Int64

	// usage is the per-client accounting ledger (shared with the store,
	// which attributes cells and cache hits at job terminal).
	usage *obs.UsageLedger

	// Disk GC: a background loop prunes the placement store to
	// storeMaxBytes (LRU) and expires result records past resultTTL and
	// checkpoints past ckptTTL.
	storeMaxBytes int64
	resultTTL     time.Duration
	ckptTTL       time.Duration
	gcStop        chan struct{}
	gcDone        chan struct{}
}

// New builds a server executing sweeps with the real engine.
func New(cfg Config) (*Server, error) {
	return newWithRunner(cfg, episim.RunSweepContext)
}

// newWithRunner lets tests substitute a controllable sweep runner.
func newWithRunner(cfg Config, run sweepRunner) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cache, err := episim.NewSweepCacheDir(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	st := newStore()
	if cfg.CacheDir != "" {
		results, err := artifact.NewStore(filepath.Join(cfg.CacheDir, "results"))
		if err != nil {
			return nil, err
		}
		st = newDurableStore(results, cfg.Retain, cfg.ResultTTL)
	} else if cfg.Retain > 0 || cfg.ResultTTL > 0 {
		// Retention without a disk store still bounds memory; evicted
		// sweeps are simply gone, as documented on the flags.
		st.retain = cfg.Retain
		st.ttl = cfg.ResultTTL
	}
	log := cfg.Logger
	if log == nil {
		log = defaultLogger()
	}
	st.log = log
	slots := episim.NewSweepSlots(cfg.Workers)
	srv := &Server{
		store:         st,
		sched:         newScheduler(st, cache, slots, cfg.Workers, cfg.MaxActive, run),
		cache:         cache,
		started:       time.Now(),
		name:          cfg.Name,
		cacheDir:      cfg.CacheDir,
		log:           log,
		storeMaxBytes: cfg.StoreMaxBytes,
		resultTTL:     cfg.ResultTTL,
		ckptTTL:       cfg.CheckpointTTL,

		submitHist:    obs.NewHistogram("episimd_submit_seconds", "Submission handling latency (parse + enqueue).", nil),
		queueWaitHist: obs.NewHistogram("episimd_queue_wait_seconds", "Time sweeps spent queued before execution started.", nil),
		plBuildHist:   obs.NewHistogram("episimd_placement_build_seconds", "Placement partition build time (cache misses only).", nil),
		cellHist:      obs.NewHistogram("episimd_cell_seconds", "Per-replicate simulation time.", nil),
		persistHist:   obs.NewHistogram("episimd_result_persist_seconds", "Time writing finished job records to the disk store.", nil),

		usage: obs.NewUsageLedger(),
	}
	st.usage = srv.usage
	if cfg.CacheDir != "" && (cfg.StoreMaxBytes > 0 || cfg.ResultTTL > 0 || cfg.CheckpointTTL > 0) {
		srv.gcStop = make(chan struct{})
		srv.gcDone = make(chan struct{})
		go srv.gcLoop()
	}
	return srv, nil
}

// Close cancels running sweeps, drains the runner pool and stops the
// disk GC loop.
func (s *Server) Close() {
	s.sched.close()
	if s.gcStop != nil {
		close(s.gcStop)
		<-s.gcDone
		s.gcStop = nil
	}
}

// gcLoop periodically bounds the disk stores: an LRU sweep over the
// placement store and a TTL expiry over persisted results — one pass at
// once, so a restarted daemon reclaims space before serving, then one a
// minute.
func (s *Server) gcLoop() {
	defer close(s.gcDone)
	t := time.NewTicker(time.Minute)
	defer t.Stop()
	for {
		s.runGC()
		select {
		case <-t.C:
		case <-s.gcStop:
			return
		}
	}
}

// runGC executes one disk GC pass. Failures are logged, never fatal: GC
// exists to reclaim space, not to gate service.
func (s *Server) runGC() {
	if s.storeMaxBytes > 0 {
		if files, bytes, err := s.cache.GCPlacements(s.storeMaxBytes); err != nil {
			s.log.Error("placement GC failed", "err", err)
		} else if files > 0 {
			s.log.Info("placement GC pruned artifacts", "files", files, "bytes", bytes)
		}
	}
	if s.resultTTL > 0 && s.store.results != nil {
		if files, bytes, err := s.store.results.ExpireOlderThan(s.resultTTL); err != nil {
			s.log.Error("result GC failed", "err", err)
		} else if files > 0 {
			s.log.Info("result GC expired records", "files", files, "bytes", bytes)
		}
	}
	if s.ckptTTL > 0 {
		if files, bytes, err := s.cache.ExpireCheckpoints(s.ckptTTL); err != nil {
			s.log.Error("checkpoint GC failed", "err", err)
		} else if files > 0 {
			s.log.Info("checkpoint GC expired artifacts", "files", files, "bytes", bytes)
		}
	}
}

// observeSpan feeds the daemon-wide latency histograms from job spans —
// the timeline's observer hook, so per-job traces and fleet histograms
// are two views of the same measurements.
func (s *Server) observeSpan(sp obs.Span) {
	switch sp.Name {
	case "queue_wait":
		s.queueWaitHist.Observe(sp.Seconds)
	case "placement_build":
		s.plBuildHist.Observe(sp.Seconds)
	case "sim":
		s.cellHist.Observe(sp.Seconds)
	case "result_persist":
		s.persistHist.Observe(sp.Seconds)
	}
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/sweeps             submit a SweepSpec, 202 + {id}
//	GET    /v1/sweeps             list jobs
//	GET    /v1/sweeps/{id}        one job's status
//	GET    /v1/sweeps/{id}/result full aggregate once finished
//	GET    /v1/sweeps/{id}/trace  span timeline: where the wall clock went
//	GET    /v1/sweeps/{id}/events SSE (or ?format=ndjson) cell stream,
//	                              replayable via ?from= / Last-Event-ID
//	POST   /v1/sweeps/{id}/cancel stop a queued or running sweep
//	DELETE /v1/sweeps/{id}        same as cancel
//	GET    /v1/stats              service + cache metrics (JSON)
//	GET    /metrics               the same, Prometheus text format
//	GET    /v1/usage              per-client usage accounting ledger
//	GET    /healthz               readiness: queue depth, active sweeps,
//	                              cache-dir writability (503 when degraded)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.store.list())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", s.withJob(s.handleStatus))
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.withJob(s.handleResult))
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.withJob(s.handleTrace))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.withJob(s.handleEvents))
	mux.HandleFunc("POST /v1/sweeps/{id}/cancel", s.withJob(s.handleCancel))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.withJob(s.handleCancel))
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.stats())
	})
	mux.HandleFunc("GET /v1/usage", s.handleUsage)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is the readiness probe a fronting gateway (episim-gw)
// polls: cheap, allocation-light, and honest about whether this instance
// can actually take work — a daemon whose cache dir stopped being
// writable would accept sweeps only to fail persisting their placements
// and results, so that degrades readiness to 503.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, byState, _ := s.store.counts()
	h := client.HealthReply{
		Status:       "ok",
		Instance:     s.name,
		UptimeSec:    time.Since(s.started).Seconds(),
		QueueDepth:   byState[client.StateQueued],
		ActiveSweeps: byState[client.StateRunning],
		MaxActive:    s.sched.maxActive,
	}
	if s.cacheDir != "" {
		h.CacheDir = s.cacheDir
		writable := true
		if err := checkWritable(s.cacheDir); err != nil {
			writable = false
			h.Status = "degraded"
			h.Error = err.Error()
		}
		h.CacheDirWritable = &writable
	}
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

// checkWritable proves dir accepts writes by creating and removing a
// probe file — permissions lie (root ignores mode bits) and statfs lies
// (full disks stat fine), so actually writing is the only honest check.
func checkWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".healthz-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}

// WriteJSON answers with v as indented JSON. The gateway answers through
// it too, so both daemons put the same bytes on the wire.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers with the API's error body, {"error": "..."}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// withJob resolves {id} before invoking h.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := s.store.get(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown sweep %q", id)
			return
		}
		h(w, r, j)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.submitHist.ObserveSince(start)
	s.submitsTotal.Add(1)
	clientID := ClientID(r)
	spec, err := episim.ParseSweepSpec(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		s.submitErrors.Add(1)
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Adopt the caller's trace id (sanitized — it travels in headers and
	// log lines) or mint one, and start the job's span timeline. The
	// observer wires every span into the daemon-wide histograms — and
	// attributes each replicate's sim time to the submitting client, so
	// the usage ledger and the latency histograms are two views of the
	// same measurements.
	traceID := obs.SanitizeTraceID(r.Header.Get(obs.TraceHeader))
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	trace := obs.NewTimeline(traceID)
	trace.SetObserver(func(sp obs.Span) {
		s.observeSpan(sp)
		if sp.Name == "sim" {
			s.usage.Add(clientID, obs.ClientUsage{SimSeconds: sp.Seconds})
		}
	})
	s.usage.Add(clientID, obs.ClientUsage{Submissions: 1})
	j := s.sched.submit(spec, traceID, trace, clientID)
	// The admission span opens at handler entry, before the job's
	// created stamp, so the timeline covers the submit path itself.
	trace.Add("admission", "", start, time.Now())
	// Cells through the store lock: the job may already be terminating.
	cells := s.store.status(j).Cells
	s.log.Info("sweep accepted", "job", j.id, "trace", traceID,
		"cells", cells, "replicates", spec.Replicates)
	w.Header().Set(obs.TraceHeader, traceID)
	WriteJSON(w, http.StatusAccepted, client.SubmitReply{
		ID:          j.id,
		Cells:       cells,
		Simulations: cells * spec.Replicates,
		TraceID:     traceID,
		SpecVersion: spec.Version(),
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, j *job) {
	WriteJSON(w, http.StatusOK, s.store.status(j))
}

// handleTrace serves a sweep's span timeline. The reply's ID is the
// backend-local job id and is NOT rewritten by a fronting gateway — the
// gateway relays these bytes verbatim, so a trace fetched through it is
// byte-identical to one fetched from the owning backend directly.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, j *job) {
	st := s.store.status(j)
	spans, dropped := j.trace.Snapshot()
	tr := client.TraceReply{
		ID:           st.ID,
		TraceID:      st.TraceID,
		State:        st.State,
		Created:      st.Created,
		Started:      st.Started,
		Finished:     st.Finished,
		Spans:        spans,
		SpansDropped: dropped,
	}
	if spans == nil {
		tr.Spans = []client.TraceSpan{} // archived jobs: explicit empty, not null
	}
	end := time.Now()
	if st.Finished != nil {
		end = *st.Finished
	}
	tr.WallSeconds = end.Sub(st.Created).Seconds()
	WriteJSON(w, http.StatusOK, tr)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, j *job) {
	raw, state, err := s.store.resultBytes(j)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if raw == nil {
		// Distinguish "not yet" (retryable 409) from "never": a canceled
		// or failed run that produced no aggregate is permanent.
		if state.Terminal() {
			WriteError(w, http.StatusGone, "sweep %s is %s and produced no result", j.id, state)
			return
		}
		WriteError(w, http.StatusConflict, "sweep %s is %s; no result yet", j.id, state)
		return
	}
	// Serve the canonical bytes materialized at finish (or reloaded from
	// the disk store) — identical before and after a daemon restart.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, j *job) {
	if !s.store.requestCancel(j) {
		WriteError(w, http.StatusConflict, "sweep %s already %s", j.id, s.store.status(j).State)
		return
	}
	WriteJSON(w, http.StatusOK, s.store.status(j))
}

// handleEvents streams a sweep's cell aggregates as they finalize.
// Server-sent events by default; ?format=ndjson (or an NDJSON Accept
// header) switches to one JSON object per line. ?from=N — or a
// Last-Event-ID header on SSE reconnect — replays the retained log from
// that sequence number (default 0: everything) before going live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *job) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad from=%q", v)
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			from = n + 1
		}
	}
	ndjson := r.URL.Query().Get("format") == "ndjson" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")

	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
	}
	w.WriteHeader(http.StatusOK)

	replay, live, unsub := j.hub.subscribe(from)
	defer unsub()

	// Delivery accounting: sends and failures feed the event-delivery
	// SLO; payload bytes are billed to the requesting client's usage row
	// before each event is written, so a client that has read the terminal
	// event finds the whole stream on /v1/usage.
	clientID := ClientID(r)
	send := func(ev client.Event) bool {
		payload, err := json.Marshal(ev)
		if err != nil {
			s.eventSendErrors.Add(1)
			return false
		}
		s.usage.Add(clientID, obs.ClientUsage{StreamedBytes: int64(len(payload))})
		if ndjson {
			if _, err := fmt.Fprintf(w, "%s\n", payload); err != nil {
				s.eventSendErrors.Add(1)
				return false
			}
		} else {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
				ev.Seq, ev.Type, payload); err != nil {
				s.eventSendErrors.Add(1)
				return false
			}
		}
		flusher.Flush()
		s.eventsSent.Add(1)
		return true
	}
	for _, ev := range replay {
		if !send(ev) {
			return
		}
	}
	// Heartbeat during quiet stretches (a slow cell can produce no events
	// for minutes) so idle-timeout proxies don't cut healthy streams: an
	// SSE comment line, or a bare newline for NDJSON — both ignored by
	// consumers.
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return // stream complete (or subscriber dropped: reconnect replays)
			}
			if !send(ev) {
				return
			}
		case <-heartbeat.C:
			var err error
			if ndjson {
				_, err = fmt.Fprint(w, "\n")
			} else {
				_, err = fmt.Fprint(w, ": keepalive\n\n")
			}
			if err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) stats() client.StatsReply {
	total, byState, evicted := s.store.counts()
	reply := client.StatsReply{
		UptimeSec:      time.Since(s.started).Seconds(),
		QueueDepth:     byState[client.StateQueued],
		ActiveSweeps:   byState[client.StateRunning],
		SweepsTotal:    total,
		SweepsDone:     byState[client.StateDone],
		SweepsFailed:   byState[client.StateFailed],
		SweepsCanceled: byState[client.StateCanceled],
		SweepsEvicted:  evicted,
		CellsStreamed:  s.sched.cellsStreamed.Load(),

		SubmitsTotal:      s.submitsTotal.Load(),
		SubmitErrors:      s.submitErrors.Load(),
		EventsSent:        s.eventsSent.Load(),
		EventsSendErrors:  s.eventSendErrors.Load(),
		TraceDroppedSpans: s.store.droppedSpans.Load(),

		KernelDays:      s.sched.kernelDaysSnapshot(),
		PopulationCache: s.cache.PopulationStats(),
		PlacementCache:  s.cache.PlacementStats(),
		CheckpointCache: s.cache.CheckpointStats(),

		CheckpointRestores: s.cache.CheckpointRestores(),
		CheckpointBytes:    s.cache.CheckpointBytes(),
	}
	cellsPerSec(&reply)
	reply.PopulationStore = s.cache.StoreStats("population")
	reply.PlacementStore = s.cache.StoreStats("placement")
	reply.CheckpointStore = s.cache.StoreStats("checkpoint")
	if s.store.results != nil {
		st := s.store.results.Stats()
		reply.ResultStore = &st
	}
	reply.Histograms = []obs.HistogramSnapshot{
		s.submitHist.Snapshot(),
		s.queueWaitHist.Snapshot(),
		s.plBuildHist.Snapshot(),
		s.cellHist.Snapshot(),
		s.persistHist.Snapshot(),
	}
	return reply
}

// handleMetrics renders the stats snapshot as Prometheus text-format
// gauges/counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	WriteMetrics(w, s.stats())
	obs.WriteRuntimeMetrics(w)
}
