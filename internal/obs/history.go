package obs

import (
	"sync"
	"time"
)

// HistoryPoint is one self-snapshot of a process's metric families: every
// scalar counter/gauge by name plus the histogram snapshots, stamped with
// the collection time. Points are what the metrics history ring retains
// and what GET /v1/metrics/history serves — windowed rates and deltas
// are derived by subtracting two points, never by scraping externally.
type HistoryPoint struct {
	Time    time.Time          `json:"time"`
	Scalars map[string]float64 `json:"scalars"`
	// Hists carries the cumulative histogram snapshots at collection
	// time; Window subtracts bucket-wise to recover the distribution of
	// only the observations inside the window.
	Hists []HistogramSnapshot `json:"histograms,omitempty"`
	// Stale marks a point assembled from data known to be old — the
	// gateway sets it when any backend contribution was a last-known
	// snapshot rather than a live read. SLO evaluations over a window
	// containing stale points are themselves marked stale.
	Stale bool `json:"stale,omitempty"`
}

// History is a fixed-size in-process time-series ring: it snapshots the
// owner's metric families on an interval and serves windowed deltas.
// It is the SLO engine's only data source — burn rates come from this
// ring, not from an external scraper, so a daemon is fully observable
// with nothing but curl.
type History struct {
	mu       sync.Mutex
	points   []HistoryPoint // ring storage, len == size once full
	head     int            // next write slot
	n        int            // points retained (≤ size)
	size     int
	interval time.Duration
	collect  func() HistoryPoint
	onAppend func(HistoryPoint)

	stop chan struct{}
	done chan struct{}
}

// NewHistory builds a ring retaining size points, collecting one every
// interval once Start is called. collect must be safe to call from the
// ring's goroutine. Size defaults to enough points to cover an hour at
// the given interval (bounded to [16, 4096]); interval defaults to 5s.
func NewHistory(size int, interval time.Duration, collect func() HistoryPoint) *History {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if size <= 0 {
		size = int(time.Hour/interval) + 1
		if size < 16 {
			size = 16
		}
		if size > 4096 {
			size = 4096
		}
	}
	return &History{
		size:     size,
		interval: interval,
		collect:  collect,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the ring's collection cadence.
func (h *History) Interval() time.Duration { return h.interval }

// OnAppend registers a hook invoked (synchronously, off the caller's
// path, on the ring goroutine) after every appended point — the SLO
// evaluator and the profiling watchdog hang off it. Set before Start.
func (h *History) OnAppend(fn func(HistoryPoint)) {
	h.mu.Lock()
	h.onAppend = fn
	h.mu.Unlock()
}

// Start launches the collection loop: one point immediately, then one
// per interval until Stop.
func (h *History) Start() {
	go func() {
		defer close(h.done)
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			h.Append(h.collect())
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
}

// Stop halts the collection loop and waits for it to exit. Idempotent.
func (h *History) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
		<-h.done
	}
}

// Append records one point (the loop's path; tests and gateway-side
// collectors may call it directly on a ring that was never Started).
func (h *History) Append(p HistoryPoint) {
	h.mu.Lock()
	if h.points == nil {
		h.points = make([]HistoryPoint, h.size)
	}
	h.points[h.head] = p
	h.head = (h.head + 1) % h.size
	if h.n < h.size {
		h.n++
	}
	fn := h.onAppend
	h.mu.Unlock()
	if fn != nil {
		fn(p)
	}
}

// Snapshot copies the retained points oldest-first, keeping only those
// at or after since (zero time = everything).
func (h *History) Snapshot(since time.Time) []HistoryPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistoryPoint, 0, h.n)
	for i := 0; i < h.n; i++ {
		p := h.points[(h.head-h.n+i+h.size)%h.size]
		if since.IsZero() || !p.Time.Before(since) {
			out = append(out, p)
		}
	}
	return out
}

// Len reports how many points the ring currently retains.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// WindowStats is the delta between the ring's newest point and the
// oldest point inside a trailing window: how much each counter moved,
// at what rate, and the histogram of only the window's observations.
type WindowStats struct {
	// From/To are the two compared points' times; Actual is their span —
	// shorter than the requested window while the ring is young.
	From   time.Time     `json:"from"`
	To     time.Time     `json:"to"`
	Actual time.Duration `json:"actual_ns"`
	// Deltas are per-scalar increases, clamped at 0 (a counter reset —
	// process restart feeding one ring — must not produce negative
	// deltas); Rates divide by Actual seconds.
	Deltas map[string]float64 `json:"deltas,omitempty"`
	Rates  map[string]float64 `json:"rates,omitempty"`
	// Hists are per-family bucket deltas (same clamping).
	Hists []HistogramSnapshot `json:"histograms,omitempty"`
	// Stale marks a window whose delta endpoints (base or newest point)
	// are stale, or a ring that stopped advancing — old burn rates must
	// say so rather than impersonate live ones. Interior stale points
	// don't flag the window: deltas only read the endpoints, and base
	// selection prefers non-stale points.
	Stale bool `json:"stale,omitempty"`
}

// Window computes the trailing-window delta ending at the newest point.
// ok is false until the ring holds at least two points.
func (h *History) Window(d time.Duration) (WindowStats, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < 2 {
		return WindowStats{}, false
	}
	newest := h.points[(h.head-1+h.size)%h.size]
	cutoff := newest.Time.Add(-d)
	// Base is the oldest point still inside the window, preferring
	// non-stale ones: deltas are computed between the two endpoints, so
	// only endpoint staleness corrupts them — skipping past a stale
	// leading point (e.g. a gateway's boot tick before its first
	// successful probe round) keeps the rest of the window live instead
	// of flagging it for the window's whole span.
	base := newest
	haveFresh := false
	for i := 1; i < h.n; i++ {
		p := h.points[(h.head-1-i+h.size)%h.size]
		if p.Time.Before(cutoff) {
			break
		}
		if !p.Stale {
			base = p
			haveFresh = true
		} else if !haveFresh {
			base = p
		}
	}
	if !base.Time.Before(newest.Time) {
		// Everything else fell outside the window: fall back to the
		// immediately preceding point so short windows on a sparse ring
		// still yield a delta instead of nothing.
		base = h.points[(h.head-2+h.size)%h.size]
	}
	stale := newest.Stale || base.Stale
	// A ring that stopped advancing (collector wedged, backend gone)
	// serves old data: flag it once the newest point is clearly past due.
	if h.interval > 0 && time.Since(newest.Time) > 3*h.interval+time.Second {
		stale = true
	}
	w := WindowStats{
		From:   base.Time,
		To:     newest.Time,
		Actual: newest.Time.Sub(base.Time),
		Deltas: make(map[string]float64, len(newest.Scalars)),
		Rates:  make(map[string]float64, len(newest.Scalars)),
		Stale:  stale,
	}
	secs := w.Actual.Seconds()
	for k, v := range newest.Scalars {
		delta := v - base.Scalars[k]
		if delta < 0 {
			delta = 0
		}
		w.Deltas[k] = delta
		if secs > 0 {
			w.Rates[k] = delta / secs
		}
	}
	for _, cur := range newest.Hists {
		diff := cur
		diff.Bounds = append([]float64(nil), cur.Bounds...)
		diff.Counts = append([]uint64(nil), cur.Counts...)
		for _, old := range base.Hists {
			if old.Name != cur.Name || old.LabelValue != cur.LabelValue ||
				len(old.Counts) != len(cur.Counts) {
				continue
			}
			for i := range diff.Counts {
				if old.Counts[i] <= diff.Counts[i] {
					diff.Counts[i] -= old.Counts[i]
				} else {
					diff.Counts[i] = 0
				}
			}
			if old.Count <= diff.Count {
				diff.Count -= old.Count
			} else {
				diff.Count = 0
			}
			if old.Sum <= diff.Sum {
				diff.Sum -= old.Sum
			} else {
				diff.Sum = 0
			}
			break
		}
		w.Hists = append(w.Hists, diff)
	}
	return w, true
}

// Hist returns the window's delta snapshot for one family (ok=false when
// the family never appeared).
func (w WindowStats) Hist(name string) (HistogramSnapshot, bool) {
	for _, s := range w.Hists {
		if s.Name == name {
			return s, true
		}
	}
	return HistogramSnapshot{}, false
}
