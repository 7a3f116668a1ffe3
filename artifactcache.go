package episim

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/synthpop"
)

// SweepStoreStats is a size snapshot of one on-disk artifact store.
type SweepStoreStats = artifact.StoreStats

// artifactKind is one row of the sweep cache's kind table: everything
// that distinguishes one cached artifact kind from the others.
type artifactKind struct {
	name     string        // as StoreStats takes it
	dir      string        // sub-directory of the cache dir
	tag      artifact.Kind // envelope kind, checked on every disk read
	quarters int64         // share of the memory budget, in fourths
	// size charges a resident value against the budget; encode and decode
	// are its artifact codec.
	size   func(any) int64
	encode func(any) []byte
	decode func([]byte) (any, error)
}

// Indexes into artifactKinds, SweepCache.caches and SweepCache.stores.
const (
	kindPopulation = iota
	kindPlacement
	kindCheckpoint
)

var artifactKinds = [...]artifactKind{
	kindPopulation: {"population", "populations", artifact.KindPopulation, 1,
		func(v any) int64 { return populationBytes(v.(*synthpop.Population)) },
		func(v any) []byte { return artifact.EncodePopulation(v.(*synthpop.Population)) },
		func(b []byte) (any, error) { return artifact.DecodePopulation(b) }},
	// The public Placement and its serializable artifact form (the
	// artifact package cannot import this one) have the same exported
	// fields, copied one by one; TestPlacementFieldsMatchArtifact holds the
	// two structs in step.
	kindPlacement: {"placement", "placements", artifact.KindPlacement, 2,
		func(v any) int64 { return placementBytes(v.(*Placement)) },
		func(v any) []byte {
			pl := v.(*Placement)
			return artifact.EncodePlacement(&artifact.Placement{Pop: pl.Pop, PersonRank: pl.PersonRank,
				LocationRank: pl.LocationRank, Ranks: pl.Ranks, Label: pl.Label, SplitStats: pl.SplitStats, Quality: pl.Quality})
		},
		func(b []byte) (any, error) {
			a, err := artifact.DecodePlacement(b)
			if err != nil {
				return nil, err
			}
			return &Placement{Pop: a.Pop, PersonRank: a.PersonRank, LocationRank: a.LocationRank,
				Ranks: a.Ranks, Label: a.Label, SplitStats: a.SplitStats, Quality: a.Quality}, nil
		}},
	kindCheckpoint: {"checkpoint", "checkpoints", artifact.KindCheckpoint, 1,
		func(v any) int64 { return checkpointBytes(v.(*core.Checkpoint)) },
		func(v any) []byte { return artifact.EncodeCheckpoint(v.(*core.Checkpoint)) },
		func(b []byte) (any, error) { return artifact.DecodeCheckpoint(b) }},
}

// NewSweepCacheDir builds a SweepCache whose memory LRU (bounded to
// maxBytes, 0 = unbounded) is backed by a content-addressed artifact
// store rooted at dir, one sub-directory per artifact kind:
// dir/populations, dir/placements, dir/checkpoints. Every placement any
// process builds is written through to disk, and every later process — a
// repeated CLI sweep, a restarted daemon — loads it back instead of
// re-partitioning, which is the single most expensive step of a run.
// Artifacts are checksummed and versioned; a corrupt, truncated or stale
// file reads as a cache miss and is rebuilt in place, never served and
// never fatal.
//
// An empty dir degrades to NewSweepCache (memory only).
func NewSweepCacheDir(maxBytes int64, dir string) (*SweepCache, error) {
	c := NewSweepCache(maxBytes)
	if dir == "" {
		return c, nil
	}
	for i, k := range artifactKinds {
		store, err := artifact.NewStore(filepath.Join(dir, k.dir))
		if err != nil {
			return nil, fmt.Errorf("episim: cache dir: %w", err)
		}
		c.caches[i].WithDisk(artifactTier{store, k})
		c.stores[i] = store
	}
	return c, nil
}

// StoreStats reports the size of one kind's on-disk store ("population",
// "placement" or "checkpoint"); nil for a memory-only cache.
func (c *SweepCache) StoreStats(kind string) *SweepStoreStats {
	for i, k := range artifactKinds {
		if k.name == kind && c.stores[i] != nil {
			st := c.stores[i].Stats()
			return &st
		}
	}
	return nil
}

// ExpireCheckpoints removes on-disk checkpoints older than age — the
// TTL behind episimd's -checkpoint-ttl flag. Checkpoints are the
// largest artifacts the store holds and are only worth keeping while
// their sweep spec is being iterated on, so they get their own horizon
// instead of competing with hot placements under the byte-bound GC.
// No-op for a memory-only cache.
func (c *SweepCache) ExpireCheckpoints(age time.Duration) (files int, bytes int64, err error) {
	if c.stores[kindCheckpoint] == nil {
		return 0, 0, nil
	}
	return c.stores[kindCheckpoint].ExpireOlderThan(age)
}

// GCPlacements prunes the on-disk placement store to at most maxBytes,
// removing least-recently-accessed artifacts first (reads refresh
// recency). Placements dominate a cache dir's growth, which is otherwise
// monotonic; pruned artifacts simply read as misses and are rebuilt and
// re-stored on next use. No-op for a memory-only cache or maxBytes <= 0.
func (c *SweepCache) GCPlacements(maxBytes int64) (files int, bytes int64, err error) {
	if c.stores[kindPlacement] == nil {
		return 0, 0, nil
	}
	return c.stores[kindPlacement].GC(maxBytes)
}

// artifactTier adapts one kind's artifact store and codec to the
// ensemble cache's disk-tier interface. A store miss becomes the
// ensemble sentinel; everything else (corruption, IO) passes through to
// be counted as a disk error.
type artifactTier struct {
	store *artifact.Store
	kind  artifactKind
}

func (t artifactTier) Load(key string) (any, error) {
	payload, err := t.store.Get(t.kind.tag, key)
	if errors.Is(err, artifact.ErrNotFound) {
		return nil, ensemble.ErrTierMiss
	} else if err != nil {
		return nil, err
	}
	return t.kind.decode(payload)
}

func (t artifactTier) Store(key string, v any) error {
	return t.store.Put(t.kind.tag, key, t.kind.encode(v))
}
