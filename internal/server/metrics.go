package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	episim "repro"
	"repro/client"
	"repro/internal/obs"
)

// mergeRule is how a metric's per-daemon values combine into the fleet
// aggregate a gateway serves.
type mergeRule int

const (
	mergeSum mergeRule = iota // counters, and gauges that measure load or size
	mergeMax                  // the fleet is as old as its longest-lived daemon
	// mergeDerived rows do not fold the backend's value: they recompute the
	// field from totals merged by the rows before them, or re-export a
	// field another row already merged.
	mergeDerived
)

// metric declares one scalar of client.StatsReply — the /v1/stats wire
// schema — once for its two other readers: /metrics (name, kind, help)
// and the gateway's fleet merge (merge, fold). Build rows with num.
type metric struct {
	// The kind is honest: counters are monotonic over the daemon's life,
	// everything else is a gauge — the sweep state tallies on purpose,
	// because retention eviction decreases them. An empty name keeps the
	// field off /metrics while it still merges.
	name, kind, help string
	merge            mergeRule
	// value reads the field (0 when it belongs to a store block the reply
	// does not carry); fold merges from's into into's by the merge rule.
	value func(*reply) float64
	fold  func(into, from *reply)
}

type (
	reply      = client.StatsReply
	cacheStats = episim.SweepCacheStats
	storeStats = episim.SweepStoreStats
)

// num builds the row for the field at addresses (nil: the field's block
// is absent from that reply).
func num[T int | int64 | float64](name, kind, help string, merge mergeRule, at func(*reply) *T) metric {
	return metric{name: name, kind: kind, help: help, merge: merge,
		value: func(st *reply) float64 {
			if p := at(st); p != nil {
				return float64(*p)
			}
			return 0
		},
		fold: func(into, from *reply) {
			src := at(from)
			if src == nil || merge == mergeDerived {
				return
			}
			if dst := at(into); merge == mergeMax {
				*dst = max(*dst, *src)
			} else {
				*dst += *src
			}
		}}
}

// in addresses a field inside one of a reply's cache or store blocks.
func in[B, T any](block func(*reply) *B, field func(*B) *T) func(*reply) *T {
	return func(st *reply) *T {
		if b := block(st); b != nil {
			return field(b)
		}
		return nil
	}
}

// cellsPerSec sets the identity every reply satisfies. The fleet
// aggregate re-derives it from the totals the rows above it merged,
// never sums it: a restarted backend's burst is not a fleet-lifetime rate.
func cellsPerSec(st *reply) {
	if st.UptimeSec > 0 {
		st.CellsPerSec = float64(st.CellsStreamed) / st.UptimeSec
	}
}

// storeBlocks are a reply's optional store blocks (present only with
// -cache-dir). gcHelp describes the GC'd-files counter; the population
// store is never GC'd, so its GC fields merge but are not exported.
var storeBlocks = []struct {
	prefix, what, gcHelp string
	at                   func(*reply) **storeStats
}{
	{"episimd_population_store", "population", "", func(st *reply) **storeStats { return &st.PopulationStore }},
	{"episimd_placement_store", "placement", "Placement artifacts pruned by the LRU disk GC.", func(st *reply) **storeStats { return &st.PlacementStore }},
	{"episimd_result_store", "result", "Result records expired by the TTL disk GC.", func(st *reply) **storeStats { return &st.ResultStore }},
	{"episimd_checkpoint_store", "checkpoint", "Checkpoint artifacts expired by the TTL disk GC.", func(st *reply) **storeStats { return &st.CheckpointStore }},
}

// metrics is the metric table, in /metrics exposition order.
var metrics = buildMetrics()

func buildMetrics() []metric {
	perSec := num("episimd_cells_per_second", "gauge", "Mean cell throughput over the daemon's uptime.", mergeDerived, func(st *reply) *float64 { return &st.CellsPerSec })
	perSec.fold = func(into, _ *reply) { cellsPerSec(into) }
	ms := []metric{
		num("episimd_uptime_seconds", "gauge", "Seconds since the daemon started.", mergeMax, func(st *reply) *float64 { return &st.UptimeSec }),
		num("episimd_queue_depth", "gauge", "Sweeps queued and still waiting for an execution slot.", mergeSum, func(st *reply) *int { return &st.QueueDepth }),
		num("episimd_active_sweeps", "gauge", "Sweeps executing right now.", mergeSum, func(st *reply) *int { return &st.ActiveSweeps }),
		num("episimd_sweeps", "gauge", "Sweeps in the memory index, any state.", mergeSum, func(st *reply) *int { return &st.SweepsTotal }),
		num("episimd_sweeps_done", "gauge", "Completed sweeps in the memory index (decreases on retention eviction).", mergeSum, func(st *reply) *int { return &st.SweepsDone }),
		num("episimd_sweeps_failed", "gauge", "Failed sweeps in the memory index (decreases on retention eviction).", mergeSum, func(st *reply) *int { return &st.SweepsFailed }),
		num("episimd_sweeps_canceled", "gauge", "Canceled sweeps in the memory index (decreases on retention eviction).", mergeSum, func(st *reply) *int { return &st.SweepsCanceled }),
		num("episimd_sweeps_evicted_total", "counter", "Finished sweeps evicted from the memory index by retention.", mergeSum, func(st *reply) *int64 { return &st.SweepsEvicted }),
		num("episimd_cells_streamed_total", "counter", "Sweep cells finalized and streamed to subscribers.", mergeSum, func(st *reply) *int64 { return &st.CellsStreamed }),
		perSec,
		num("episimd_submissions_received_total", "counter", "Sweep submissions received (accepted or not).", mergeSum, func(st *reply) *int64 { return &st.SubmitsTotal }),
		num("episimd_submission_errors_total", "counter", "Sweep submissions refused (parse or admission failure).", mergeSum, func(st *reply) *int64 { return &st.SubmitErrors }),
		num("episimd_events_sent_total", "counter", "Event-stream messages delivered to subscribers.", mergeSum, func(st *reply) *int64 { return &st.EventsSent }),
		num("episimd_event_send_errors_total", "counter", "Event-stream sends that failed (subscriber gone mid-write).", mergeSum, func(st *reply) *int64 { return &st.EventsSendErrors }),
		num("episimd_trace_dropped_spans_total", "counter", "Spans dropped past the per-job trace retention cap.", mergeSum, func(st *reply) *int64 { return &st.TraceDroppedSpans }),
		// Always 0 from this build (see client.StatsReply.ProfileCaptures);
		// kept because the pinned wire formats name it.
		num("episimd_profile_captures_total", "counter", "Watchdog-triggered pprof capture events persisted to the artifact store.", mergeSum, func(st *reply) *int64 { return &st.ProfileCaptures }),
	}

	// One build cache's accounting, declared once and instantiated per
	// artifact kind.
	cacheBlock := func(prefix string, c func(*reply) *cacheStats) []metric {
		return []metric{
			num(prefix+"_entries", "gauge", "Entries resident in the memory LRU.", mergeSum, in(c, func(c *cacheStats) *int { return &c.Entries })),
			num(prefix+"_bytes", "gauge", "Bytes retained by the memory LRU.", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.Bytes })),
			num(prefix+"_hits_total", "counter", "Memory cache hits.", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.Hits })),
			num(prefix+"_misses_total", "counter", "Memory cache misses.", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.Misses })),
			num(prefix+"_evictions_total", "counter", "Entries evicted by the byte bound.", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.Evictions })),
			num(prefix+"_builds_total", "counter", "Artifacts built from scratch (singleflight-deduplicated).", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.Builds })),
			num(prefix+"_disk_hits_total", "counter", "Disk tier hits (artifact loaded instead of rebuilt).", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.DiskHits })),
			num(prefix+"_disk_misses_total", "counter", "Disk tier misses.", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.DiskMisses })),
			num(prefix+"_disk_writes_total", "counter", "Artifacts written through to the disk tier.", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.DiskWrites })),
			num(prefix+"_disk_errors_total", "counter", "Disk tier read/write failures (served from build instead).", mergeSum, in(c, func(c *cacheStats) *int64 { return &c.DiskErrors })),
		}
	}
	ms = append(ms, cacheBlock("episimd_population_cache", func(st *reply) *cacheStats { return &st.PopulationCache })...)
	ms = append(ms, cacheBlock("episimd_placement_cache", func(st *reply) *cacheStats { return &st.PlacementCache })...)
	ms = append(ms, cacheBlock("episimd_checkpoint_cache", func(st *reply) *cacheStats { return &st.CheckpointCache })...)

	// One artifact store's size and GC accounting, likewise; on /metrics
	// every store's size comes before any store's GC counters.
	var sizes, gcs []metric
	for _, b := range storeBlocks {
		s := func(st *reply) *storeStats { return *b.at(st) }
		sizes = append(sizes,
			num(b.prefix+"_files", "gauge", "Files in the "+b.what+" store.", mergeSum, in(s, func(s *storeStats) *int { return &s.Files })),
			num(b.prefix+"_bytes", "gauge", "Bytes in the "+b.what+" store.", mergeSum, in(s, func(s *storeStats) *int64 { return &s.Bytes })))
		files := num(b.prefix+"_gc_files_total", "counter", b.gcHelp, mergeSum, in(s, func(s *storeStats) *int64 { return &s.GCFiles }))
		bytes := num(b.prefix+"_gc_bytes_total", "counter", "Bytes reclaimed from the "+b.what+" store by GC.", mergeSum, in(s, func(s *storeStats) *int64 { return &s.GCBytes }))
		if b.gcHelp == "" {
			files.name, bytes.name = "", ""
		}
		gcs = append(gcs, files, bytes)
	}
	ms = append(append(ms, sizes...), gcs...)

	// The fork economics: prefix builds no cache tier absorbed (the
	// checkpoint cache's builds, re-exported under their own name), branch
	// resumes, and the estimated bytes of every checkpoint built.
	return append(ms,
		num("episimd_checkpoint_builds_total", "counter", "Fork-point checkpoint prefix executions (no cache tier absorbed them).", mergeDerived, func(st *reply) *int64 { return &st.CheckpointCache.Builds }),
		num("episimd_checkpoint_restores_total", "counter", "Intervention branches resumed from a checkpoint instead of day 0.", mergeSum, func(st *reply) *int64 { return &st.CheckpointRestores }),
		num("episimd_checkpoint_bytes_total", "counter", "Estimated in-memory bytes of checkpoints built by this daemon.", mergeSum, func(st *reply) *int64 { return &st.CheckpointBytes }))
}

// WriteMetrics renders a StatsReply as Prometheus text-format series,
// each with its HELP/TYPE block. Exported so episim-gw can serve the
// cluster-aggregated snapshot in exactly the per-instance metric
// vocabulary.
func WriteMetrics(w io.Writer, st client.StatsReply) {
	for _, m := range metrics {
		if m.name != "" {
			obs.PromHeader(w, m.name, m.kind, m.help)
			fmt.Fprintf(w, "%s %s\n", m.name, strconv.FormatFloat(m.value(&st), 'g', -1, 64))
		}
	}
	if kd := st.KernelDays; len(kd) > 0 {
		// One labeled counter family, kernels sorted for a stable scrape.
		names := make([]string, 0, len(kd))
		for k := range kd {
			names = append(names, k)
		}
		sort.Strings(names)
		obs.PromHeader(w, "episimd_kernel_days_total", "counter", "Simulated days by executing kernel.")
		for _, k := range names {
			fmt.Fprintf(w, "episimd_kernel_days_total{kernel=%q} %d\n", k, kd[k])
		}
	}
	obs.WriteHistogramsProm(w, st.Histograms)
}

// MergeStats folds one backend's snapshot into the fleet aggregate, each
// field by its row's rule, in table order. A store block appears in the
// aggregate as soon as one backend reports it.
func MergeStats(into *client.StatsReply, st client.StatsReply) {
	for _, b := range storeBlocks {
		if *b.at(&st) != nil && *b.at(into) == nil {
			*b.at(into) = &storeStats{}
		}
	}
	for _, m := range metrics {
		m.fold(into, &st)
	}
	for k, n := range st.KernelDays {
		if into.KernelDays == nil {
			into.KernelDays = make(map[string]int64)
		}
		into.KernelDays[k] += n
	}
	// Histograms share one bucket layout across the fleet, so per-bucket
	// counts sum exactly — the merged distribution is what one daemon
	// would have recorded had it done all the work.
	into.Histograms = obs.MergeSnapshots(into.Histograms, st.Histograms)
}
