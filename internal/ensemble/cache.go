package ensemble

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Tier is a secondary cache tier behind the memory LRU — in practice a
// content-addressed disk store of encoded artifacts. Load returns
// ErrTierMiss when the tier has nothing for the key; any other error is
// a damaged or unreadable artifact, which the cache also treats as a
// miss (counted separately) and heals by rebuilding and re-storing.
// Implementations must be safe for concurrent use.
type Tier interface {
	Load(key string) (any, error)
	Store(key string, val any) error
}

// ErrTierMiss reports that a tier holds no value for a key.
var ErrTierMiss = errors.New("ensemble: not in cache tier")

// Cache is a content-keyed build-once cache designed to outlive a single
// sweep: the server keeps one per process so placements built for one
// request are reused by every later request with the same content key.
//
// It combines four mechanisms:
//
//   - singleflight: the first caller of a key runs the build while
//     concurrent callers of the same key block until it finishes, then
//     share the value read-only — this is what lets two simultaneous
//     sweep submissions share one placement build;
//   - an LRU byte bound: completed entries are charged their sized bytes
//     and evicted least-recently-used once MaxBytes is exceeded (0 means
//     unbounded), so a long-running daemon cannot grow without limit;
//   - an optional disk tier: memory misses first try Tier.Load (under
//     the same singleflight guard, so one disk read serves all waiters,
//     and a loaded value is promoted into the memory LRU); successful
//     builds write through to the tier, so a fresh process — or a
//     restarted daemon — inherits every placement any earlier run built.
//     Corrupt, stale or wrong-version artifacts surface as load errors
//     and are rebuilt, never fatal;
//   - accounting: hits, misses, builds and evictions per tier, which is
//     how tests (and the /v1/stats endpoint) prove sharing works — and
//     how a warm run proves it built nothing (Builds stays 0).
//
// Failed builds, panicking ones included, are NOT retained: waiters in
// flight observe the error, then the key is forgotten so a later request
// may retry — a transient failure must not poison a process-lifetime
// cache.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	sizer    func(any) int64
	disk     Tier // nil = memory-only
	entries  map[string]*cacheEntry
	lru      *list.List // front = most recent; completed entries only
	bytes    int64
	stats    CacheStats // counters only: Stats fills Entries and Bytes
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed when val/err are set
	val   any
	err   error
	bytes int64
	elem  *list.Element // nil while building or after eviction
}

// NewCache builds a cache bounded to maxBytes (0 = unbounded) with sizer
// charging each completed value (nil = every entry costs 1, turning the
// bound into a max entry count).
func NewCache(maxBytes int64, sizer func(any) int64) *Cache {
	if sizer == nil {
		sizer = func(any) int64 { return 1 }
	}
	return &Cache{
		maxBytes: maxBytes,
		sizer:    sizer,
		entries:  map[string]*cacheEntry{},
		lru:      list.New(),
	}
}

// WithDisk attaches a disk tier behind the memory LRU and returns the
// cache. Call before the cache is shared; the tier is not swappable
// under load.
func (c *Cache) WithDisk(t Tier) *Cache {
	c.disk = t
	return c
}

// get returns the cached value for key, running build at most once per
// key across all goroutines (and, for a shared cache, across all sweeps
// in the process). The second return reports whether THIS call ran the
// build — the per-run accounting in SweepResult sums it, so "one build
// across two concurrent requests" is provable. Waiting on another
// caller's in-flight build respects ctx; the build itself always runs to
// completion because other requests may be waiting on it.
func (c *Cache) get(ctx context.Context, key string, build func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.val, false, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	// Memory miss. Try the disk tier first — still under the entry's
	// singleflight guard, so concurrent callers share one disk read the
	// same way they share one build. A disk hit is promoted into the
	// memory LRU and does NOT count as a build (the warm-run guarantee).
	if c.disk != nil {
		if v, err := recovered(func() (any, error) { return c.disk.Load(key) }); err == nil {
			c.mu.Lock()
			c.stats.DiskHits++
			e.val = v
			e.bytes = c.sizer(e.val)
			e.elem = c.lru.PushFront(e)
			c.bytes += e.bytes
			c.evict()
			c.mu.Unlock()
			close(e.ready)
			return e.val, false, nil
		} else {
			c.mu.Lock()
			c.stats.DiskMisses++
			if !errors.Is(err, ErrTierMiss) {
				// Corrupt/stale/unreadable artifact: counted, rebuilt,
				// and overwritten by the write-through below.
				c.stats.DiskErrors++
			}
			c.mu.Unlock()
		}
	}

	e.val, e.err = recovered(build)

	c.mu.Lock()
	c.stats.Builds++
	if e.err != nil {
		// Forget failed builds: waiters holding e still see the error,
		// but the next get of this key retries.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else {
		e.bytes = c.sizer(e.val)
		e.elem = c.lru.PushFront(e)
		c.bytes += e.bytes
		c.evict()
	}
	c.mu.Unlock()
	close(e.ready)
	if e.err == nil && c.disk != nil {
		// Write-through after waiters are released: persistence must not
		// delay the sweeps blocked on this value, and a failed write only
		// costs a rebuild in some later process.
		err := c.disk.Store(key, e.val)
		c.mu.Lock()
		if err != nil {
			c.stats.DiskErrors++
		} else {
			c.stats.DiskWrites++
		}
		c.mu.Unlock()
	}
	return e.val, true, e.err
}

// recovered calls f and turns a panic into its error, so a load or build
// that panics still releases its waiters and leaves no entry behind: every
// sweep waiting on the key gets the error, and the next get retries.
func recovered(f func() (any, error)) (val any, err error) {
	defer func() {
		if p := recover(); p != nil {
			val, err = nil, panicError(p)
		}
	}()
	return f()
}

// evict drops least-recently-used completed entries until the byte bound
// holds. Callers hold c.mu. Values evicted while a sweep still uses them
// stay alive through the sweep's own reference; eviction only forgets
// the cache's copy.
func (c *Cache) evict() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		e.elem = nil
		c.bytes -= e.bytes
		if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
		c.stats.Evictions++
	}
}

// CacheStats is a point-in-time snapshot of a Cache's accounting.
// Hits/Misses/Evictions describe the memory tier; the Disk* counters
// describe the disk tier (all zero for a memory-only cache). Builds
// counts actual build-function executions — the number every cache tier
// exists to minimize, and the number a fully warm run holds at zero.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Builds    int64 `json:"builds"`

	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	DiskWrites int64 `json:"disk_writes"`
	DiskErrors int64 `json:"disk_errors"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries, st.Bytes = len(c.entries), c.bytes
	return st
}
