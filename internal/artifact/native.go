package artifact

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"repro/internal/synthpop"
)

// wireNative reports whether this host stores integers little-endian, the
// wire's byte order. Each fixed type then has in memory exactly the bytes
// of its wire record: int32, int64 and float64 trivially, and
// synthpop.Visit (int32, int32, int32, int16, int16: 16 bytes, no padding)
// because its fields sit at the wire offsets 0, 4, 8, 12 and 14, which
// TestVisitLayout pins.
var wireNative = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// fixed lists the types whose arrays putBlock and getBlock move whole.
type fixed interface {
	int32 | int64 | float64 | synthpop.Visit
}

// putBlock appends s as a count-prefixed block of size-byte wire records:
// one copy on a little-endian host, record by record through perField
// (which writes s into its block b) on a big-endian one.
func putBlock[T fixed](e *enc, s []T, size int, perField func(b []byte, s []T)) {
	b := e.block(len(s), size)
	if !wireNative {
		perField(b, s)
	} else if len(s) > 0 {
		copy(b, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(b)))
	}
}

// getBlock reads a block putBlock wrote, empty but not nil for a zero
// count and nil after an error. On a little-endian host it returns, for a
// decoder with view set, the block itself where it lies aligned for T,
// and otherwise one copy into memory it does not zero first; on a
// big-endian host perField (which fills out from its block b) decodes it
// record by record.
func getBlock[T fixed](d *dec, size int, perField func(out []T, b []byte)) []T {
	n, b, ok := d.block(size)
	switch {
	case !ok:
		return nil
	case !wireNative || n == 0:
		out := make([]T, n)
		perField(out, b)
		return out
	}
	s := unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	if d.view && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(s[0]) == 0 {
		return s
	}
	// b need not be aligned for T; the view is then only ever read by the copy.
	return slices.Clone(s)
}
