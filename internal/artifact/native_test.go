package artifact

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

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
