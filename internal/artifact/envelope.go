// Package artifact is the persistence layer of the sweep system: a
// deterministic binary codec for populations and placements plus a
// content-addressed on-disk store keyed by the same content keys the
// ensemble cache uses in memory.
//
// Every artifact on disk is a sealed envelope:
//
//	magic "EPAR" | version u16 | kind u8 | pad u8 |
//	keyLen u32 | key | pad zero bytes | payloadLen u64 | payload | checksum u64
//
// The envelope carries the artifact's own content key, so a file moved,
// renamed or hash-colliding into the wrong slot fails the key check and
// is treated as a miss, never served as the wrong content. The checksum
// trailer covers every preceding byte, so truncation and bit rot are
// also misses — the contract throughout this package is that a reader
// either gets exactly the bytes a writer sealed, or a recognizable
// error it can treat as "rebuild it".
//
// The version field picks the checksum and the pad. Seal writes version
// 3, whose trailer is the CRC-32C (Castagnoli, hardware-accelerated on
// amd64 and arm64) zero-extended to 64 bits, and whose pad (0 to 7 zero
// bytes after the key, their count in byte 7) starts the visit records of
// a population or placement 8-aligned and every later int32 block of it
// 4-aligned (see pad). Open takes only the pad Seal picks. It still reads
// version 2 (the same without a pad, byte 7 reserved as 0) and version 1
// (that with a CRC-64/ECMA trailer), so result stores and caches written
// before version 3 stay readable.
//
// Encoding is deterministic: identical content seals to identical bytes
// (fixed field order, fixed-width little-endian integers, no maps), so
// re-encoding a decoded artifact reproduces the file byte for byte —
// the property the warm-run "byte-identical output" guarantee rests on.
// Decoding is strict in the same sense: a presence flag is 0 or 1 and
// nothing trails the last field, so every payload a decoder accepts is
// the one encoding of its value.
//
// The codec works one record block at a time. Each array (persons,
// locations, visits, rank and weight vectors, checkpoint arrays) is a u64
// count followed by count fixed-width little-endian records. The encoder
// grows its buffer once per array; the decoder checks the count against
// the remaining payload and takes the whole block in one bounds check. On
// a little-endian host a block whose records have the bytes of its Go
// values (visits and every int32, int64 and float64 array) then moves
// whole, one copy each way (native.go, the package's only unsafe code).
// DecodePopulation and DecodePlacement copy none of a visit, offset or rank
// block aligned for its type, as all four are in a version-3 file read into
// an 8-aligned buffer such as os.ReadFile's: they view it in the payload,
// which the value then keeps alive and its caller must not modify.
// Persons and locations, whose structs are padded, and every array on a
// big-endian host go record by record, each from a fixed-length re-slice
// of the block. Scalars, strings and the checkpoint's JSON sections are
// read and written field by field. reference_test.go keeps the
// field-at-a-time codec this replaced as the byte-for-byte and
// error-for-error oracle.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
)

// Version is the envelope format version Seal writes. Open also reads
// versions 1 and 2 and rejects any other version (a cache miss to
// callers), so a format change never corrupts results — it just rebuilds.
const Version = 3

const envelopeMagic = "EPAR"

// Kind tags what an envelope's payload is.
type Kind uint8

// Artifact kinds.
const (
	KindPopulation Kind = 1
	KindPlacement  Kind = 2
	KindJob        Kind = 3
	// 4 is retired: older daemons wrote pprof captures ("prof-*" keys)
	// into the result store under it. Result stores may still hold them,
	// so no new kind may reuse the value.
)

// ErrInvalid is wrapped by every decode failure — bad magic, unknown
// version, kind or key mismatch, truncation, checksum failure,
// structural garbage. Callers treat any ErrInvalid as a cache miss and
// rebuild; it is never fatal.
var ErrInvalid = errors.New("artifact: invalid")

// errNewerVersion is the ErrInvalid of an envelope whose version is
// higher than Version: a newer writer's file, which Store.Get leaves on
// disk for that writer.
var errNewerVersion = fmt.Errorf("%w: newer envelope version", ErrInvalid)

// ErrNotFound reports that a store has no artifact under a key.
var ErrNotFound = errors.New("artifact: not found")

var (
	crc32cTable = crc32.MakeTable(crc32.Castagnoli)
	crc64Table  = crc64.MakeTable(crc64.ECMA)
)

// checksum is the trailer of an envelope of version v over data.
func checksum(v uint16, data []byte) uint64 {
	if v == 1 {
		return crc64.Checksum(data, crc64Table)
	}
	return uint64(crc32.Checksum(data, crc32cTable))
}

// Seal wraps payload in a versioned, checksummed envelope carrying its
// kind and content key, padded so that the visit records of a population
// or placement start 8-aligned in it. Identical (kind, key, payload)
// always seals to identical bytes.
func Seal(kind Kind, key string, payload []byte) []byte {
	p := pad(kind, len(key), payload)
	b := make([]byte, 0, len(envelopeMagic)+16+len(key)+int(p)+len(payload)+8)
	b = append(b, envelopeMagic...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = append(b, byte(kind), p)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = append(b, zeros[:p]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, checksum(Version, b))
}

var zeros [7]byte

// pad is the length of the zero run Seal puts after the key: the fewest
// bytes that start the visit records of a population or placement payload
// (of any other kind, or one too short to hold a visit count: the payload
// itself) at a multiple of 8 in the sealed bytes. Every later int32 block
// of a population or placement then starts 4-aligned.
func pad(kind Kind, keyLen int, payload []byte) byte {
	at := 0
	if kind == KindPopulation || kind == KindPlacement {
		d := &dec{b: payload}
		d.take(int(d.u32())) // name
		d.block(5)           // persons
		d.block(17)          // locations
		if d.u64(); d.err == nil {
			at = d.off
		}
	}
	return byte(-(len(envelopeMagic) + 16 + keyLen + at) & 7)
}

// Open validates an envelope against the expected kind and key and
// returns its payload. Every failure wraps ErrInvalid.
func Open(data []byte, kind Kind, key string) ([]byte, error) {
	v, gotKind, gotKey, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%w: kind %d, want %d", ErrInvalid, gotKind, kind)
	}
	if gotKey != key {
		return nil, fmt.Errorf("%w: key mismatch (stale or misplaced artifact)", ErrInvalid)
	}
	if len(rest) < 16 {
		return nil, fmt.Errorf("%w: truncated", ErrInvalid)
	}
	payloadLen := binary.LittleEndian.Uint64(rest)
	if payloadLen != uint64(len(rest)-16) {
		return nil, fmt.Errorf("%w: payload length %d, have %d bytes", ErrInvalid, payloadLen, len(rest)-16)
	}
	payload := rest[8 : 8+payloadLen]
	if p := pad(kind, len(key), payload); v >= 3 && data[7] != p {
		return nil, fmt.Errorf("%w: pad %d, want %d", ErrInvalid, data[7], p)
	}
	sum := binary.LittleEndian.Uint64(rest[8+payloadLen:])
	if checksum(v, data[:len(data)-8]) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	}
	return payload, nil
}

// parseHeader reads the fixed envelope prefix (through the key and its
// pad), returning the version and the remainder. It is the piece Keys() uses to
// identify a file without verifying its checksum.
func parseHeader(data []byte) (v uint16, kind Kind, key string, rest []byte, err error) {
	if len(data) < len(envelopeMagic)+8 {
		return 0, 0, "", nil, fmt.Errorf("%w: truncated header", ErrInvalid)
	}
	if string(data[:4]) != envelopeMagic {
		return 0, 0, "", nil, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	if v = binary.LittleEndian.Uint16(data[4:]); v > Version {
		return 0, 0, "", nil, fmt.Errorf("%w %d, this reader knows 1 to %d", errNewerVersion, v, Version)
	} else if v < 1 {
		return 0, 0, "", nil, fmt.Errorf("%w: version %d, want 1 to %d", ErrInvalid, v, Version)
	}
	kind = Kind(data[6])
	keyLen := binary.LittleEndian.Uint32(data[8:])
	if uint64(keyLen) > uint64(len(data)-12) {
		return 0, 0, "", nil, fmt.Errorf("%w: key length %d overruns data", ErrInvalid, keyLen)
	}
	key = string(data[12 : 12+keyLen])
	// Byte 7 is reserved (0) before version 3 and the pad length from it on.
	rest, p := data[12+keyLen:], int(data[7])
	if v < 3 && p != 0 || p > len(zeros) || p > len(rest) || !bytes.Equal(rest[:p], zeros[:p]) {
		return 0, 0, "", nil, fmt.Errorf("%w: byte 7 is %d or the pad is not zero", ErrInvalid, p)
	}
	return v, kind, key, rest[p:], nil
}
