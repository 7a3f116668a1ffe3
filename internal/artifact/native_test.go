package artifact

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// TestVisitLayout pins the memory layout that lets a little-endian host
// move a visit block whole: 16 bytes, no padding, every field at its wire
// offset. A reordered or widened field fails here instead of writing
// caches the per-field codec cannot read.
func TestVisitLayout(t *testing.T) {
	var v synthpop.Visit
	got := []uintptr{unsafe.Sizeof(v), unsafe.Offsetof(v.Person), unsafe.Offsetof(v.Loc),
		unsafe.Offsetof(v.Sub), unsafe.Offsetof(v.Start), unsafe.Offsetof(v.End)}
	if want := []uintptr{16, 0, 4, 8, 12, 14}; !slices.Equal(got, want) {
		t.Fatalf("Visit size and field offsets %v, want %v", got, want)
	}
}

// TestBlockMatchesPerField holds putBlock and getBlock to the per-field
// record codecs, the only path a big-endian host takes, on random arrays
// with the edge values of each type mixed in: equal bytes encoded, equal
// bits decoded, at every alignment of the block, for empty, one-element
// and longer arrays.
func TestBlockMatchesPerField(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 48))
	i32 := []int32{math.MinInt32, math.MaxInt32, -1, 0, 1}
	i64 := []int64{math.MinInt64, math.MaxInt64, math.MinInt32, -1, 0}
	f64 := []float64{math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN payload
		math.Float64frombits(0xfff8_dead_beef_0001), math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64}
	for _, n := range []int{0, 1, 2, 7, 1000} {
		checkBlock(t, randArray(r, n, i32, func() int32 { return int32(r.Uint32()) }), 4, putI32s, getI32s)
		checkBlock(t, randArray(r, n, i64, func() int64 { return int64(r.Uint64()) }), 8, putI64s, getI64s)
		checkBlock(t, randArray(r, n, f64, func() float64 { return math.Float64frombits(r.Uint64()) }), 8, putF64s, getF64s)
		checkBlock(t, randArray(r, n, nil, func() synthpop.Visit {
			return synthpop.Visit{Person: pick(r, i32), Loc: int32(r.Uint32()), Sub: pick(r, i32),
				Start: int16(r.Uint32()), End: []int16{math.MinInt16, -1, 1440, math.MaxInt16}[r.IntN(4)]}
		}), 16, putVisits, getVisits)
	}
}

// randArray draws n values, about a quarter of them edge values.
func randArray[T any](r *rand.Rand, n int, edges []T, draw func() T) []T {
	s := make([]T, n)
	for i := range s {
		if len(edges) > 0 && r.IntN(4) == 0 {
			s[i] = pick(r, edges)
		} else {
			s[i] = draw()
		}
	}
	return s
}

func pick[T any](r *rand.Rand, s []T) T { return s[r.IntN(len(s))] }

func checkBlock[T fixed](t *testing.T, s []T, size int, put func([]byte, []T), get func([]T, []byte)) {
	t.Helper()
	perField := func(s []T) []byte {
		b := make([]byte, size*len(s))
		put(b, s)
		return b
	}
	for pad := range 8 {
		want := append(le.AppendUint64(make([]byte, pad), uint64(len(s))), perField(s)...)
		e := &enc{b: make([]byte, pad)}
		putBlock(e, s, size, put)
		if !bytes.Equal(e.b, want) {
			t.Fatalf("%T×%d at offset %d: block encoding differs from the per-field one", s, len(s), pad)
		}
		d := &dec{b: want, off: pad}
		got := getBlock(d, size, get)
		if err := d.finish(); err != nil {
			t.Fatalf("%T×%d at offset %d: %v", s, len(s), pad, err)
		}
		ref := make([]T, len(s))
		get(ref, want[pad+8:])
		if got == nil || len(got) != len(s) || !bytes.Equal(perField(got), perField(ref)) ||
			!bytes.Equal(perField(got), perField(s)) {
			t.Fatalf("%T×%d at offset %d: block decoding differs from the per-field one", s, len(s), pad)
		}
		clear(want)
		if !bytes.Equal(perField(got), perField(s)) {
			t.Fatalf("%T×%d at offset %d: the decoded slice shares the payload's memory", s, len(s), pad)
		}
	}
}

// TestSealAlignsVisits: in every sealed population and placement the
// visit records start at a multiple of 8, and the offsets and both rank
// maps at a multiple of 4, for names of 0 to 8 bytes, keys of 0 to 3, odd
// and even person and location counts, and split and unsplit populations.
// Each block's place is found from encodings with the later arrays left
// out, not from the offsets Seal reads.
func TestSealAlignsVisits(t *testing.T) {
	// Each encoding ends with the 8-byte count of the first array left out.
	end := func(p synthpop.Population) int { return len(EncodePopulation(&p)) }
	parities := map[[2]int]bool{}
	for _, people := range []int{40, 41} {
		for _, locations := range []int{6, 7} {
			base := synthpop.Generate(synthpop.DefaultConfig("", people, locations, 3))
			split, stats, err := splitloc.SplitPopulation(base, splitloc.Options{Threshold: 2})
			if err != nil || stats.NumSplit == 0 {
				t.Fatalf("split: %v, %d locations split", err, stats.NumSplit)
			}
			for _, pop := range []synthpop.Population{*base, *split} {
				parities[[2]int{len(pop.Persons) % 2, len(pop.Locations) % 2}] = true
				for n := range 9 {
					pop.Name = "abcdefgh"[:n]
					visits := end(synthpop.Population{Name: pop.Name, Persons: pop.Persons, Locations: pop.Locations}) - 8
					offsets := end(synthpop.Population{Name: pop.Name, Persons: pop.Persons, Locations: pop.Locations, Visits: pop.Visits})
					pl := &Placement{Pop: &pop, PersonRank: make([]int32, len(pop.Persons)), LocationRank: make([]int32, len(pop.Locations))}
					persons := len(EncodePopulation(&pop)) + 8
					locs := persons + 4*len(pl.PersonRank) + 8
					for _, key := range []string{"", "k", "k2", "k23"} {
						for _, c := range []struct {
							kind    Kind
							payload []byte
							blocks  map[string]int
						}{
							{KindPopulation, EncodePopulation(&pop), map[string]int{"offsets": offsets}},
							{KindPlacement, EncodePlacement(pl), map[string]int{"offsets": offsets, "person ranks": persons, "location ranks": locs}},
						} {
							sealed := Seal(c.kind, key, c.payload)
							at := len(sealed) - 8 - len(c.payload)
							what := fmt.Sprintf("kind %d, %d persons, %d locations, name %q, key %q", c.kind, len(pop.Persons), len(pop.Locations), pop.Name, key)
							if (at+visits)%8 != 0 {
								t.Fatalf("%s: visits start at %d", what, at+visits)
							}
							for name, off := range c.blocks {
								if (at+off)%4 != 0 {
									t.Fatalf("%s: %s start at %d", what, name, at+off)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(parities) != 4 {
		t.Fatalf("person and location count parities covered: %v, want all four", parities)
	}
}

// TestReloadViewsBlocks: on a little-endian host, a population and a
// placement read back through Store.Get view their visit and offset blocks
// and the placement its rank maps inside the buffer the file was read
// into, each with cap == len. The placement's quality vectors are copies
// wherever the payload lies.
func TestReloadViewsBlocks(t *testing.T) {
	if !wireNative {
		t.Skip("a big-endian host decodes every block record by record")
	}
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testPlacement(t)
	if err := st.Put(KindPlacement, "pl", EncodePlacement(want)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(KindPopulation, "pop", EncodePopulation(want.Pop)); err != nil {
		t.Fatal(err)
	}
	payload, err := st.Get(KindPlacement, "pl")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := DecodePlacement(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodePlacement(pl), payload) {
		t.Fatal("reloaded placement re-encodes to different bytes")
	}
	popPayload, err := st.Get(KindPopulation, "pop")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := DecodePopulation(popPayload)
	if err != nil {
		t.Fatal(err)
	}
	for what, view := range map[string]bool{
		"placement visits":   viewOf(pl.Pop.Visits, payload),
		"placement offsets":  viewOf(pl.Pop.PersonVisitOffsets, payload),
		"person ranks":       viewOf(pl.PersonRank, payload),
		"location ranks":     viewOf(pl.LocationRank, payload),
		"population visits":  viewOf(pop.Visits, popPayload),
		"population offsets": viewOf(pop.PersonVisitOffsets, popPayload),
	} {
		if !view {
			t.Errorf("%s are not a view of the read buffer with cap == len", what)
		}
	}
	for shift := range 8 {
		b := append(make([]byte, shift), payload...)[shift:]
		pl, err := DecodePlacement(b)
		if err != nil {
			t.Fatal(err)
		}
		q := pl.Quality
		for i, row := range append([][]int64{q.TotalWeights}, q.PartWeights...) {
			if overlaps(row, b) {
				t.Errorf("payload at offset %d: quality weight row %d shares it", shift, i)
			}
		}
		if overlaps(q.MaxOverAvg, b) {
			t.Errorf("payload at offset %d: quality MaxOverAvg shares it", shift)
		}
	}
}

// viewOf reports whether s lies inside buf with no capacity past its end.
func viewOf[T any](s []T, buf []byte) bool {
	return len(s) > 0 && cap(s) == len(s) && overlaps(s, buf) &&
		uintptr(unsafe.Pointer(unsafe.SliceData(s)))+uintptr(len(s))*unsafe.Sizeof(s[0]) <=
			uintptr(unsafe.Pointer(unsafe.SliceData(buf)))+uintptr(len(buf))
}

// overlaps reports whether s starts inside buf.
func overlaps[T any](s []T, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return len(s) > 0 && p >= lo && p < lo+uintptr(len(buf))
}

// TestOldEnvelopesDecode: a store filled before version 3 still serves
// its populations and placements. Version-1 and version-2 files open
// through Store.Get and decode, through the copy path, to values that
// re-encode to their payloads.
func TestOldEnvelopesDecode(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pl := testPlacement(t)
	decoders := map[Kind]func([]byte) ([]byte, error){
		KindPopulation: func(b []byte) ([]byte, error) {
			p, err := DecodePopulation(b)
			if err != nil {
				return nil, err
			}
			return EncodePopulation(p), nil
		},
		KindPlacement: func(b []byte) ([]byte, error) {
			p, err := DecodePlacement(b)
			if err != nil {
				return nil, err
			}
			return EncodePlacement(p), nil
		},
	}
	for v, seal := range map[int]func(Kind, string, []byte) []byte{1: refSealV1, 2: refSealV2} {
		for kind, payload := range map[Kind][]byte{KindPopulation: EncodePopulation(pl.Pop), KindPlacement: EncodePlacement(pl)} {
			key := fmt.Sprintf("v%d-%d", v, kind)
			path := st.path(key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, seal(kind, key, payload), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(kind, key)
			if err != nil {
				t.Fatalf("version %d, kind %d: %v", v, kind, err)
			}
			again, err := decoders[kind](got)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("version %d, kind %d: decoded to a value that does not re-encode to its payload (%v)", v, kind, err)
			}
		}
	}
}
