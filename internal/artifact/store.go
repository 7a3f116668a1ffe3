package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Store is a content-addressed artifact store rooted at one directory:
// each artifact lives at <dir>/<shard>/<sha256(key)>.art, sealed in the
// versioned, checksummed envelope with its own key recorded inside.
// Writes are atomic (temp file + rename), so a crashed writer leaves no
// half-written artifact — and a half-synced one fails its checksum and
// reads as a miss.
//
// The store is safe for concurrent use by one process; cross-process
// sharing is safe for readers because completed files are immutable
// (rewrites of a key rename over it atomically).
type Store struct {
	dir string

	mu      sync.Mutex
	files   int
	bytes   int64
	gcFiles int64
	gcBytes int64
}

// StoreStats is a point-in-time size snapshot of a store. GCFiles and
// GCBytes count artifacts this process's GC passes removed (LRU sweep or
// TTL expiry).
type StoreStats struct {
	Files   int   `json:"files"`
	Bytes   int64 `json:"bytes"`
	GCFiles int64 `json:"gc_files,omitempty"`
	GCBytes int64 `json:"gc_bytes,omitempty"`
}

const artExt = ".art"

// NewStore opens (creating if needed) a store rooted at dir and scans it
// once for size accounting.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := &Store{dir: dir}
	cands, total, err := s.scanFiles()
	if err != nil {
		return nil, err
	}
	s.files = len(cands)
	s.bytes = total
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a content key to its file: two-character shard directory
// plus the full SHA-256, so huge stores don't put every file in one dir.
func (s *Store) path(key string) string {
	sum := hex.EncodeToString(func() []byte { h := sha256.Sum256([]byte(key)); return h[:] }())
	return filepath.Join(s.dir, sum[:2], sum+artExt)
}

// Put seals payload under (kind, key) and writes it atomically,
// replacing any previous artifact for the key.
func (s *Store) Put(kind Kind, key string, payload []byte) error {
	data := Seal(kind, key, payload)
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	var prev int64 = -1
	if info, err := os.Stat(path); err == nil {
		prev = info.Size()
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	s.mu.Lock()
	if prev >= 0 {
		s.bytes += int64(len(data)) - prev
	} else {
		s.files++
		s.bytes += int64(len(data))
	}
	s.mu.Unlock()
	return nil
}

// Get opens the artifact stored under (kind, key) and returns its
// payload. A missing file is ErrNotFound; a corrupt, truncated, stale or
// misplaced file is removed and reported as ErrInvalid — both are "miss,
// rebuild it" to a cache tier, never fatal. A file of a newer envelope
// version is also ErrInvalid but stays on disk: a newer binary sharing
// the directory wrote it and can still read it.
func (s *Store) Get(kind Kind, key string) ([]byte, error) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("artifact: read %s: %w", path, err)
	}
	payload, err := Open(data, kind, key)
	if err != nil {
		if !errors.Is(err, errNewerVersion) {
			s.removeFile(path, int64(len(data)))
		}
		return nil, err
	}
	// Mark the artifact recently used (best-effort): GC evicts by mtime,
	// so a read refreshes the file's place in the LRU order the same way
	// a memory-cache hit moves an entry to the front.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return payload, nil
}

// Has reports whether an artifact file exists under key (existence
// only — no integrity check; a later Get may still miss on corruption).
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

func (s *Store) removeFile(path string, size int64) {
	if os.Remove(path) == nil {
		s.mu.Lock()
		s.files--
		s.bytes -= size
		s.mu.Unlock()
	}
}

// gcCandidate is one artifact file as the GC scan sees it.
type gcCandidate struct {
	path  string
	size  int64
	mtime time.Time
}

// scanFiles walks the store and returns every artifact file with its
// size and modification time (= last access, since Get touches mtime).
func (s *Store) scanFiles() ([]gcCandidate, int64, error) {
	var out []gcCandidate
	var total int64
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != artExt {
			return err
		}
		info, infoErr := d.Info()
		if infoErr != nil {
			return nil // racing a concurrent delete: skip
		}
		out = append(out, gcCandidate{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("artifact: scan %s: %w", s.dir, err)
	}
	return out, total, nil
}

// gcRemove deletes one candidate and charges the GC counters.
func (s *Store) gcRemove(c gcCandidate) bool {
	if os.Remove(c.path) != nil {
		return false
	}
	s.mu.Lock()
	s.files--
	s.bytes -= c.size
	s.gcFiles++
	s.gcBytes += c.size
	s.mu.Unlock()
	return true
}

// GC prunes the store to at most maxBytes, removing least-recently-
// accessed artifacts first (mtime order; Get refreshes it). A removed
// artifact is not data loss — it reads as a miss and is rebuilt and
// re-stored by the next run that needs it. maxBytes <= 0 is a no-op.
func (s *Store) GC(maxBytes int64) (files int, bytes int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	cands, total, err := s.scanFiles()
	if err != nil || total <= maxBytes {
		return 0, 0, err
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].mtime.Equal(cands[j].mtime) {
			return cands[i].mtime.Before(cands[j].mtime)
		}
		return cands[i].path < cands[j].path
	})
	for _, c := range cands {
		if total <= maxBytes {
			break
		}
		if s.gcRemove(c) {
			total -= c.size
			files++
			bytes += c.size
		}
	}
	return files, bytes, nil
}

// ExpireOlderThan removes every artifact not accessed within age
// (mtime-based TTL: a read refreshes it). age <= 0 is a no-op.
func (s *Store) ExpireOlderThan(age time.Duration) (files int, bytes int64, err error) {
	if age <= 0 {
		return 0, 0, nil
	}
	cands, _, err := s.scanFiles()
	if err != nil {
		return 0, 0, err
	}
	cutoff := time.Now().Add(-age)
	for _, c := range cands {
		if c.mtime.After(cutoff) {
			continue
		}
		if s.gcRemove(c) {
			files++
			bytes += c.size
		}
	}
	return files, bytes, nil
}

// KeyInfo identifies one stored artifact.
type KeyInfo struct {
	Key  string
	Kind Kind
	Size int64
}

// Keys scans the store and returns every artifact's recorded key and
// kind (from the envelope header — checksums are not verified here),
// sorted by key for deterministic iteration. Unreadable or foreign
// files are skipped.
func (s *Store) Keys() ([]KeyInfo, error) {
	var out []KeyInfo
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != artExt {
			return err
		}
		f, openErr := os.Open(path)
		if openErr != nil {
			return nil
		}
		defer f.Close()
		// The fixed prefix is 12 bytes; keys are content-key strings,
		// comfortably under this cap.
		head := make([]byte, 64*1024)
		n, _ := io.ReadFull(f, head)
		_, kind, key, _, hdrErr := parseHeader(head[:n])
		if hdrErr != nil {
			return nil
		}
		info, infoErr := d.Info()
		if infoErr != nil {
			return nil
		}
		out = append(out, KeyInfo{Key: key, Kind: kind, Size: info.Size()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: scan %s: %w", s.dir, err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Stats snapshots the store's size accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Files: s.files, Bytes: s.bytes, GCFiles: s.gcFiles, GCBytes: s.gcBytes}
}
