// Command episim-gw is the scale-out front door for a fleet of episimd
// instances: a stateless HTTP gateway that routes each sweep submission
// by its dominant placement content key (rendezvous hashing over the
// healthy backends), so repeat submissions of the same population and
// placement land on the instance whose placement cache is already warm.
// Status, results, cancels and event streams proxy transparently — job
// ids issued by the gateway embed the owning backend's name — and
// /v1/stats and /metrics aggregate the whole fleet.
//
// Usage:
//
//	episim-gw -addr :8320 -backends http://10.0.0.1:8321,http://10.0.0.2:8321
//
// Backend identity comes from each daemon's own name (`episimd -name`,
// discovered via /healthz), not from its position in -backends: the list
// can be reordered, extended, or re-addressed across gateway restarts
// without breaking issued job ids or moving any key's cache-affine
// owner. A daemon that reports no name falls back to positional identity
// ("b0", "b1", ...) — only then does list order matter.
//
// Backends are probed via /healthz every -probe-interval; a backend
// failing -fail-after consecutive probes (or any submit) is ejected and
// submissions re-route to the next backend in preference order until it
// recovers. With -spill-queue-depth N, a submission also routes past a
// healthy owner whose queue depth exceeds N to the HRW runner-up —
// trading one cold placement build for tail latency — counted by the
// episim_gw_spilled_total metric.
//
// Admission control (off by default) throttles each client — keyed by
// the X-Episim-Client header, else the remote address — with a token
// bucket (-submit-rate, -submit-burst) and an in-flight sweep cap
// (-max-inflight-per-client), answering 429 + Retry-After, which the
// repro/client package honors automatically.
//
// Observability: trace ids (X-Episim-Trace-Id) pass through to the
// owning backend — or are minted at the edge — and
// GET /v1/sweeps/{id}/trace relays the owner's span timeline verbatim.
// /metrics adds fleet-merged latency histograms plus the gateway's own
// per-backend proxy round-trip histogram; -log-format json and
// -pprof-addr mirror episimd's flags.
//
// Existing clients need no changes: point them at the gateway instead of
// a single daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	var (
		addr          = flag.String("addr", ":8320", "listen address")
		backends      = flag.String("backends", "", "comma-separated episimd base URLs (required; identity comes from each daemon's -name, so order is free)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "health-probe cadence")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "health-probe request timeout")
		failAfter     = flag.Int("fail-after", 2, "consecutive failed probes before a backend is ejected")
		spillDepth    = flag.Int("spill-queue-depth", 0, "spill a submission to the HRW runner-up when the owner's queue depth exceeds this (0 = pure content-key affinity)")
		maxInflight   = flag.Int("max-inflight-per-client", 0, "cap on one client's unfinished sweeps across the fleet (0 = unlimited)")
		submitRate    = flag.Float64("submit-rate", 0, "per-client sustained submission rate, sweeps/sec (0 = unlimited)")
		submitBurst   = flag.Int("submit-burst", 0, "per-client submission burst size (0 = max(1, 2×submit-rate))")
		logFormat     = flag.String("log-format", "text", "log line format: text or json (json lines carry trace ids for correlation)")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof and /debug/runtime on this address (empty = off; never expose publicly)")
	)
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "episim-gw: -backends is required (comma-separated episimd URLs)")
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "episim-gw: -log-level:", err)
		os.Exit(2)
	}
	log := obs.NewLogger(os.Stderr, *logFormat, level, "episim-gw")

	gw, err := cluster.New(cluster.Config{
		Backends:             urls,
		ProbeInterval:        *probeInterval,
		ProbeTimeout:         *probeTimeout,
		FailAfter:            *failAfter,
		SpillQueueDepth:      *spillDepth,
		MaxInflightPerClient: *maxInflight,
		SubmitRate:           *submitRate,
		SubmitBurst:          *submitBurst,
		Logger:               log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "episim-gw:", err)
		os.Exit(1)
	}
	debugSrv, err := obs.ServeDebug(*pprofAddr, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "episim-gw: -pprof-addr:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("listening", "addr", *addr, "backends", len(urls), "probe_interval", *probeInterval,
		"fail_after", *failAfter, "spill_depth", *spillDepth,
		"submit_rate", *submitRate, "max_inflight", *maxInflight)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shutdownCtx)
		}
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Error("shutdown failed", "err", err)
		}
		gw.Close()
	}
}
