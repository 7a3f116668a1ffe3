package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
)

// DebugHandler serves the opt-in profiling surface behind -pprof-addr:
// the full net/http/pprof suite under /debug/pprof/ plus a plain-text
// runtime metrics page at /debug/runtime. It is a separate handler (and
// in the daemons a separate listener) on purpose — profiling endpoints
// leak internals and can stall the world, so they never share the
// service port.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteRuntimeMetrics(w)
	})
	return mux
}

// ServeDebug starts the profiling listener on addr ("" = disabled,
// returns nil). The returned server is already serving; callers Close it
// on shutdown. Errors binding the port are returned so a daemon with a
// mistyped -pprof-addr fails loudly at boot instead of silently
// profiling nothing.
func ServeDebug(addr string, log *Logger) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv := &http.Server{Addr: addr, Handler: DebugHandler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	log.Info("pprof listening", "addr", addr)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("pprof server failed", "err", err)
		}
	}()
	return srv, nil
}

// WriteRuntimeMetrics renders process-level gauges in Prometheus text
// format: goroutines, GC activity, heap, and (on Linux) resident set
// size from /proc. Appended to /metrics by both daemons so every scrape
// carries runtime context alongside service counters.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := func(name, kind, help string, v float64) {
		PromHeader(w, name, kind, help)
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	}
	sample("go_goroutines", "gauge", "Number of live goroutines.", float64(runtime.NumGoroutine()))
	sample("go_gc_cycles_total", "counter", "Completed GC cycles.", float64(ms.NumGC))
	sample("go_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause.", float64(ms.PauseTotalNs)/1e9)
	sample("go_memstats_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	sample("go_memstats_sys_bytes", "gauge", "Bytes obtained from the OS.", float64(ms.Sys))
	if rss, ok := ResidentBytes(); ok {
		sample("process_resident_memory_bytes", "gauge", "Resident set size.", float64(rss))
	} else {
		// /proc is absent (non-Linux): publish the Go-heap proxy under a
		// DISTINCT name. HeapSys is not an RSS — impersonating
		// process_resident_memory_bytes would poison cross-platform
		// dashboards, while omitting memory entirely blinds them.
		sample("process_memory_goheap_fallback_bytes", "gauge",
			"Go heap reserved from the OS (HeapSys); RSS fallback where /proc is unavailable.",
			float64(ms.HeapSys))
	}
}
