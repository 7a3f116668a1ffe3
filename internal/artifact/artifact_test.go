package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/partition"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

func testPopulation(t *testing.T) *synthpop.Population {
	t.Helper()
	pop := synthpop.Generate(synthpop.DefaultConfig("codec-town", 300, 30, 7))
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

func testPlacement(t *testing.T) *Placement {
	pop := testPopulation(t)
	pr := make([]int32, pop.NumPersons())
	lr := make([]int32, pop.NumLocations())
	for i := range pr {
		pr[i] = int32(i % 4)
	}
	for i := range lr {
		lr[i] = int32(i % 4)
	}
	return &Placement{
		Pop:          pop,
		PersonRank:   pr,
		LocationRank: lr,
		Ranks:        4,
		Label:        "RR",
		SplitStats: &splitloc.Stats{
			Threshold: 12.5, NumSplit: 3, NumFragments: 9,
			LocationsPre: 30, LocationsPost: 36,
			MaxLocWeightPre: 99.5, MaxLocWeightPost: 14.25,
			MaxDegreePre: 80, MaxDegreePost: 12, GrowthFrac: 0.2,
		},
		Quality: &partition.Quality{
			K:               4,
			PartWeights:     [][]int64{{10, 20}, {11, 19}, {9, 21}, {10, 20}},
			TotalWeights:    []int64{40, 80},
			MaxOverAvg:      []float64{1.1, 1.05},
			EdgeCut:         123,
			MaxPartCut:      45,
			TotalEdgeWeight: 400,
		},
	}
}

func popsEqual(a, b *synthpop.Population) bool {
	if a.Name != b.Name || len(a.Persons) != len(b.Persons) ||
		len(a.Locations) != len(b.Locations) || len(a.Visits) != len(b.Visits) ||
		len(a.PersonVisitOffsets) != len(b.PersonVisitOffsets) {
		return false
	}
	for i := range a.Persons {
		if a.Persons[i] != b.Persons[i] {
			return false
		}
	}
	for i := range a.Locations {
		if a.Locations[i] != b.Locations[i] {
			return false
		}
	}
	for i := range a.Visits {
		if a.Visits[i] != b.Visits[i] {
			return false
		}
	}
	for i := range a.PersonVisitOffsets {
		if a.PersonVisitOffsets[i] != b.PersonVisitOffsets[i] {
			return false
		}
	}
	return true
}

// TestPopulationRoundTrip: decode(encode(p)) is lossless and re-encoding
// the decoded population is byte-identical — the determinism the
// content-addressed store depends on.
func TestPopulationRoundTrip(t *testing.T) {
	pop := testPopulation(t)
	payload := EncodePopulation(pop)
	got, err := DecodePopulation(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !popsEqual(pop, got) {
		t.Fatal("decoded population differs from original")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded population invalid: %v", err)
	}
	if !bytes.Equal(payload, EncodePopulation(got)) {
		t.Fatal("re-encode of decoded population is not byte-identical")
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	pl := testPlacement(t)
	payload := EncodePlacement(pl)
	got, err := DecodePlacement(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !popsEqual(pl.Pop, got.Pop) {
		t.Fatal("embedded population differs")
	}
	if got.Ranks != pl.Ranks || got.Label != pl.Label {
		t.Fatalf("header fields differ: %d %q", got.Ranks, got.Label)
	}
	for i := range pl.PersonRank {
		if pl.PersonRank[i] != got.PersonRank[i] {
			t.Fatal("person ranks differ")
		}
	}
	for i := range pl.LocationRank {
		if pl.LocationRank[i] != got.LocationRank[i] {
			t.Fatal("location ranks differ")
		}
	}
	if *got.SplitStats != *pl.SplitStats {
		t.Fatalf("split stats differ: %+v vs %+v", got.SplitStats, pl.SplitStats)
	}
	if got.Quality.EdgeCut != pl.Quality.EdgeCut || got.Quality.K != pl.Quality.K ||
		len(got.Quality.PartWeights) != len(pl.Quality.PartWeights) ||
		got.Quality.PartWeights[2][1] != pl.Quality.PartWeights[2][1] {
		t.Fatalf("quality differs: %+v", got.Quality)
	}
	if !bytes.Equal(payload, EncodePlacement(got)) {
		t.Fatal("re-encode of decoded placement is not byte-identical")
	}

	// nil SplitStats/Quality round-trip too (RR placements have neither).
	bare := &Placement{Pop: pl.Pop, PersonRank: pl.PersonRank,
		LocationRank: pl.LocationRank, Ranks: 4, Label: "RR"}
	got2, err := DecodePlacement(EncodePlacement(bare))
	if err != nil {
		t.Fatal(err)
	}
	if got2.SplitStats != nil || got2.Quality != nil {
		t.Fatal("nil stats did not round-trip as nil")
	}
}

// TestEnvelopeRejects: every way a file can be wrong — truncation, bit
// rot, a different format version, the wrong key or kind, trailing
// garbage — must surface as ErrInvalid, never a panic or silent
// mis-decode.
func TestEnvelopeRejects(t *testing.T) {
	pop := testPopulation(t)
	payload := EncodePopulation(pop)
	sealed := Seal(KindPopulation, "k1", payload)

	if got, err := Open(sealed, KindPopulation, "k1"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean open failed: %v", err)
	}
	if !bytes.Equal(sealed, Seal(KindPopulation, "k1", payload)) {
		t.Fatal("sealing identical content twice differs")
	}

	cases := map[string][]byte{
		"truncated header": sealed[:8],
		"truncated body":   sealed[:len(sealed)/2],
		"missing trailer":  sealed[:len(sealed)-3],
		"empty":            {},
	}
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped
	badMagic := append([]byte(nil), sealed...)
	badMagic[0] = 'X'
	cases["bad magic"] = badMagic
	badVersion := append([]byte(nil), sealed...)
	badVersion[4] = 0xEE
	cases["future version"] = badVersion

	for name, data := range cases {
		if _, err := Open(data, KindPopulation, "k1"); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
	if _, err := Open(sealed, KindPlacement, "k1"); !errors.Is(err, ErrInvalid) {
		t.Fatal("kind mismatch must be ErrInvalid")
	}
	if _, err := Open(sealed, KindPopulation, "other"); !errors.Is(err, ErrInvalid) {
		t.Fatal("key mismatch must be ErrInvalid")
	}

	// Decoders on corrupt payloads (past the envelope) degrade to errors.
	if _, err := DecodePopulation(payload[:len(payload)-5]); !errors.Is(err, ErrInvalid) {
		t.Fatalf("truncated payload: %v", err)
	}
	if _, err := DecodePopulation(append(append([]byte(nil), payload...), 1, 2, 3)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("trailing garbage: %v", err)
	}
	if _, err := DecodePlacement(payload); !errors.Is(err, ErrInvalid) {
		t.Fatalf("wrong payload type: %v", err)
	}
}

// TestEnvelopeVersions: Seal writes version 3, whose trailer is the
// zero-extended CRC-32C of every byte before it and whose byte 7 is the
// length of the zero pad after the key; Open still reads a version-2
// envelope (refSealV2, no pad) and a version-1 one (refSealV1, CRC-64/ECMA)
// to its payload and rejects one with a bit flipped, and rejects version 0.
func TestEnvelopeVersions(t *testing.T) {
	payload := EncodePopulation(testPopulation(t))
	sealed := Seal(KindPopulation, "k1", payload)
	if v := binary.LittleEndian.Uint16(sealed[4:]); v != 3 || Version != 3 {
		t.Fatalf("Seal wrote version %d (Version = %d), want 3", v, Version)
	}
	body, trailer := sealed[:len(sealed)-8], binary.LittleEndian.Uint64(sealed[len(sealed)-8:])
	if want := uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))); trailer != want {
		t.Fatalf("version-3 trailer = %#x, want the CRC-32C %#x", trailer, want)
	}
	p := int(sealed[7])
	v2 := refSealV2(KindPopulation, "k1", payload)
	if !bytes.Equal(body[:12+2+p], append(append([]byte{'E', 'P', 'A', 'R', 3, 0, byte(KindPopulation), byte(p)}, v2[8:14]...), make([]byte, p)...)) ||
		!bytes.Equal(body[14+p:], v2[14:len(v2)-8]) {
		t.Fatal("a version-3 envelope differs from version 2 outside its version, pad and trailer")
	}
	v1 := refSealV1(KindPopulation, "k1", payload)
	if !bytes.Equal(v1[:len(v1)-8], append([]byte{'E', 'P', 'A', 'R', 1, 0}, v2[6:len(v2)-8]...)) {
		t.Fatal("a version-1 envelope differs from version 2 outside its version and trailer")
	}
	for _, old := range [][]byte{v1, v2} {
		v := old[4]
		if got, err := Open(old, KindPopulation, "k1"); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("version-%d open: %v", v, err)
		}
		for _, at := range []int{len(old) / 2, len(old) - 1} {
			flipped := append([]byte(nil), old...)
			flipped[at] ^= 0x08
			if _, err := Open(flipped, KindPopulation, "k1"); !errors.Is(err, ErrInvalid) {
				t.Fatalf("version %d with byte %d flipped: err = %v, want ErrInvalid", v, at, err)
			}
		}
	}
	v0 := append([]byte(nil), sealed...)
	v0[4] = 0
	if _, err := Open(v0, KindPopulation, "k1"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("version 0: err = %v, want ErrInvalid", err)
	}
}

// TestEnvelopeCanonical: Open takes only the envelope Seal writes for a
// version. Byte 7 is 0 before version 3; from version 3 on it is the pad
// length Seal picks for the kind and payload, over zero bytes. Every
// mutated envelope below carries a valid checksum, so only those checks
// can reject it.
func TestEnvelopeCanonical(t *testing.T) {
	payload := EncodePopulation(testPopulation(t))
	resum := func(b []byte) []byte {
		v := binary.LittleEndian.Uint16(b[4:])
		binary.LittleEndian.PutUint64(b[len(b)-8:], checksum(v, b[:len(b)-8]))
		return b
	}
	key := "k"
	for len(key) < 8 && Seal(KindPopulation, key, payload)[7] < 2 {
		key += "k"
	}
	sealed := Seal(KindPopulation, key, payload)
	if sealed[7] < 2 {
		t.Fatalf("no key of 1 to 8 bytes gives a pad of 2 or more (pad %d)", sealed[7])
	}
	if _, err := Open(sealed, KindPopulation, key); err != nil {
		t.Fatal(err)
	}
	at, p := 12+len(key), int(sealed[7])
	splice := func(p int, pad []byte) []byte {
		b := append(append(append([]byte(nil), sealed[:at]...), pad...), sealed[at+int(sealed[7]):]...)
		b[7] = byte(p)
		return resum(b)
	}
	// An older envelope with a pad that byte 7 counts: only its version
	// tells Open that byte 7 must be 0.
	padded := func(old []byte) []byte {
		b := append(append(append([]byte(nil), old[:at]...), 0), old[at:]...)
		b[7] = 1
		return resum(b)
	}
	cases := map[string][]byte{
		"pad one short":        splice(p-1, make([]byte, p-1)),
		"pad one long":         splice(p+1, make([]byte, p+1)),
		"pad of 8":             splice(8, make([]byte, 8)),
		"pad byte not zero":    splice(p, append(make([]byte, p-1), 1)),
		"version 1 with a pad": padded(refSealV1(KindPopulation, key, payload)),
		"version 2 with a pad": padded(refSealV2(KindPopulation, key, payload)),
	}
	for name, data := range cases {
		if _, err := Open(data, KindPopulation, key); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

// TestDecodeRejectsOverflowingCounts: a crafted payload whose element
// count × element size wraps uint64 must fail the bounds check, not
// pass it and panic in makeslice — "never a panic" includes adversarial
// files dropped into a shared cache directory.
func TestDecodeRejectsOverflowingCounts(t *testing.T) {
	for _, count := range []uint64{
		0x4000000000000001,     // ×4 wraps to 4
		0x2000000000000000 + 3, // ×8 wraps to 24
		^uint64(0),             // ×anything wraps
	} {
		e := &enc{}
		e.str("x")
		e.u64(count) // persons count
		e.b = append(e.b, make([]byte, 64)...)
		if _, err := DecodePopulation(e.b); !errors.Is(err, ErrInvalid) {
			t.Fatalf("count %#x: err = %v, want ErrInvalid", count, err)
		}
		// Same wrap through a placement's rank slices.
		e2 := &enc{}
		e2.population(testPopulation(t))
		e2.u64(count) // PersonRank length
		e2.b = append(e2.b, make([]byte, 64)...)
		if _, err := DecodePlacement(e2.b); !errors.Is(err, ErrInvalid) {
			t.Fatalf("placement count %#x: err = %v, want ErrInvalid", count, err)
		}
	}
}

func TestStorePutGet(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(KindPopulation, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
	if err := st.Put(KindPopulation, "a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(KindJob, "b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(KindPopulation, "a")
	if err != nil || string(got) != "payload-a" {
		t.Fatalf("get a = %q, %v", got, err)
	}
	if s := st.Stats(); s.Files != 2 || s.Bytes <= 0 {
		t.Fatalf("stats = %+v", s)
	}

	// Overwrite replaces, accounting follows.
	if err := st.Put(KindPopulation, "a", []byte("payload-a-v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, _ = st.Get(KindPopulation, "a")
	if string(got) != "payload-a-v2-longer" {
		t.Fatalf("overwrite: %q", got)
	}
	if s := st.Stats(); s.Files != 2 {
		t.Fatalf("stats after overwrite = %+v", s)
	}

	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0].Key != "a" || keys[1].Key != "b" || keys[1].Kind != KindJob {
		t.Fatalf("keys = %+v", keys)
	}

	// A second store over the same dir sees the same artifacts (the
	// cross-process persistence this package exists for).
	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Files != 2 {
		t.Fatalf("reopened stats = %+v", s)
	}
	got, err = st2.Get(KindJob, "b")
	if err != nil || string(got) != "payload-b" {
		t.Fatalf("reopened get = %q, %v", got, err)
	}
}

// TestStoreCorruptFileIsMissAndRemoved: a damaged artifact reads as
// ErrInvalid and the store deletes it so the next write-through heals.
func TestStoreCorruptFileIsMissAndRemoved(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(KindPlacement, "pl", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	// Truncate the file behind the store's back.
	var path string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == artExt {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("no artifact file written")
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(KindPlacement, "pl"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("corrupt get: %v, want ErrInvalid", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file was not removed")
	}
	if _, err := st.Get(KindPlacement, "pl"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after removal: %v, want ErrNotFound", err)
	}
	if err := st.Put(KindPlacement, "pl", []byte("rebuilt")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(KindPlacement, "pl")
	if err != nil || string(got) != "rebuilt" {
		t.Fatalf("heal: %q, %v", got, err)
	}
}

// TestStoreKeepsNewerVersion: a file of a version this reader does not
// know yet reads as ErrInvalid but stays on disk for the newer binary
// that wrote it; a damaged file of a known version is still removed.
func TestStoreKeepsNewerVersion(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(KindPlacement, "pl", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	path := st.path("pl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	newer := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(newer[4:], Version+1)
	if err := os.WriteFile(path, newer, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(KindPlacement, "pl"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("version-%d get: %v, want ErrInvalid", Version+1, err)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, newer) {
		t.Fatalf("version-%d file was not left as written (%v)", Version+1, err)
	}
	if s := st.Stats(); s.Files != 1 {
		t.Fatalf("stats after a kept file = %+v, want 1 file", s)
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 0x01 // inside the payload
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(KindPlacement, "pl"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bit-flipped get: %v, want ErrInvalid", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("bit-flipped version-2 file was not removed")
	}
}
