// Command episimd is the streaming sweep service: a long-running daemon
// that accepts declarative SweepSpec submissions over HTTP, executes
// them on a shared bounded worker pool with a process-lifetime placement
// cache, and streams per-cell aggregates (SSE or NDJSON) the moment each
// cell finalizes.
//
// Usage:
//
//	episimd -addr :8321 -workers 16 -max-active 4 -cache-mb 2048
//	episimd -cache-dir /var/lib/episimd -retain 512 -result-ttl 72h
//
// With -cache-dir the daemon is durable: placements built by any
// earlier process (or by `episim sweep -warm` against the same directory) are
// loaded instead of re-partitioned, and finished sweeps spill to disk —
// GET /v1/sweeps/{id}/result keeps working across restarts and after
// the memory index evicts old jobs per -retain / -result-ttl.
//
// Then, from any HTTP client:
//
//	episim sweep -example | curl -s -d @- localhost:8321/v1/sweeps
//	curl -N localhost:8321/v1/sweeps/sw-000001/events
//	curl -s localhost:8321/v1/stats
//
// Observability: every submission carries a trace id (X-Episim-Trace-Id,
// minted when absent) and GET /v1/sweeps/{id}/trace returns its span
// timeline; /metrics adds latency histograms. -log-format json switches
// to trace-correlated JSON log lines, and -pprof-addr serves
// net/http/pprof on a separate (private!) listener.
//
// SIGINT/SIGTERM drain gracefully: running sweeps are canceled, open
// event streams receive their terminal event, and the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// defaultName identifies this instance when -name is not given: the
// hostname when it passes the instance-name rules, else a safe constant
// — a host that happens to be called "build-sw-east" (or "b2") must
// still boot with default flags; only an EXPLICIT bad -name is an
// error.
func defaultName() string {
	if h, err := os.Hostname(); err == nil && client.ValidateInstanceName(h) == nil {
		return h
	}
	return "episimd"
}

// validateName applies the shared instance-name rules (see
// client.ValidateInstanceName — the gateway enforces the same ones when
// it discovers names, so a daemon that boots is a daemon that routes).
func validateName(name string) error {
	if err := client.ValidateInstanceName(name); err != nil {
		return fmt.Errorf("episimd: -name: %w", err)
	}
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8321", "listen address")
		workers   = flag.Int("workers", 0, "shared worker-slot pool across all sweeps (0 = GOMAXPROCS)")
		maxActive = flag.Int("max-active", 2, "sweeps executing concurrently; the rest queue")
		cacheMB   = flag.Int64("cache-mb", 4096, "LRU bound on the shared population+placement cache, MiB (0 = unbounded)")
		cacheDir  = flag.String("cache-dir", "", "persistent artifact store: placements survive restarts, finished sweeps spill to disk (empty = memory only)")
		retain    = flag.Int("retain", 1024, "finished sweeps kept in the memory index; older ones evict (to disk with -cache-dir) (0 = unbounded)")
		resultTTL = flag.Duration("result-ttl", 0, "evict finished sweeps from the memory index — and, with -cache-dir, expire their disk records — after this age, e.g. 24h (0 = never)")
		ckptTTL   = flag.Duration("checkpoint-ttl", 0, "expire on-disk fork-point checkpoints not read within this age, e.g. 6h (0 = never); requires -cache-dir")
		storeMax  = flag.Int64("store-max-bytes", 0, "bound the on-disk placement store: a background LRU sweep prunes least-recently-used artifacts past this size (0 = unbounded)")
		name      = flag.String("name", defaultName(), "instance name reported by /healthz; a fronting episim-gw adopts it as this backend's routing identity and embeds it in job ids")
		logFormat = flag.String("log-format", "text", "log line format: text or json (json lines carry trace ids for correlation)")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof and /debug/runtime on this address (empty = off; never expose publicly)")
	)
	flag.Parse()

	if err := validateName(*name); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "episimd: -log-level:", err)
		os.Exit(2)
	}
	log := obs.NewLogger(os.Stderr, *logFormat, level, "episimd")

	srv, err := server.New(server.Config{
		Workers:       *workers,
		MaxActive:     *maxActive,
		CacheBytes:    *cacheMB << 20,
		CacheDir:      *cacheDir,
		Retain:        *retain,
		ResultTTL:     *resultTTL,
		CheckpointTTL: *ckptTTL,
		StoreMaxBytes: *storeMax,
		Name:          *name,
		Logger:        log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "episimd:", err)
		os.Exit(1)
	}
	debugSrv, err := obs.ServeDebug(*pprofAddr, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "episimd: -pprof-addr:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("listening", "addr", *addr, "workers", *workers, "max_active", *maxActive,
		"cache_mib", *cacheMB, "cache_dir", *cacheDir, "retain", *retain)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Info("shutting down")
		srv.Close() // cancel running sweeps, flush terminal events
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shutdownCtx)
		}
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Error("shutdown failed", "err", err)
			os.Exit(1)
		}
	}
}
