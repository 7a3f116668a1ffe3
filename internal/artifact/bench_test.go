package artifact_test

import (
	"testing"

	episim "repro"
	"repro/internal/artifact"
)

// Package-level sinks keep the compiler from dropping a measured call.
var (
	sinkBytes     []byte
	sinkPlacement *artifact.Placement
)

// BenchmarkArtifactCodec times what a placement reload pays per byte on
// place-cold's GP-splitLoc×64 placement of a 30k-person / 7.5k-location
// population: encode, decode, and Open, the envelope's checksum check
// (CRC-32C in the version-2 envelope Seal writes) that precedes every
// decode. On a little-endian host the visit block and the integer and
// float blocks move whole, so both directions are mostly those copies and
// the person and location records, and encode also zeroes its output
// buffer. It is the root counterpart of the bench's artifact.encode_ms and
// artifact.decode_ms.
func BenchmarkArtifactCodec(b *testing.B) {
	pop := episim.Generate("bench", 30000, 7500, 1)
	pl, err := episim.BuildPlacement(pop, episim.PlacementOptions{
		Strategy: episim.GP, SplitLoc: true, Ranks: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a := &artifact.Placement{Pop: pl.Pop, PersonRank: pl.PersonRank, LocationRank: pl.LocationRank,
		Ranks: pl.Ranks, Label: pl.Label, SplitStats: pl.SplitStats, Quality: pl.Quality}
	payload := artifact.EncodePlacement(a)
	sealed := artifact.Seal(artifact.KindPlacement, "bench", payload)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for range b.N {
			sinkBytes = artifact.EncodePlacement(a)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for range b.N {
			if sinkPlacement, err = artifact.DecodePlacement(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.SetBytes(int64(len(sealed)))
		for range b.N {
			if sinkBytes, err = artifact.Open(sealed, artifact.KindPlacement, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
