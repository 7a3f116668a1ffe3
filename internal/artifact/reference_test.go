package artifact

// The field-at-a-time codec every artifact was written with before the
// record-block codec replaced it: one bounds-checked read or append per
// field. It is kept here as the oracle TestCodecMatchesReference holds
// EncodeX and DecodeX to, byte for byte and error for error. Two things
// differ from the codec it was copied from: the encoder records where
// each count or length field went, and the decoder notes (lax) when it
// accepted a flag byte other than 0 or 1, which DecodeX now rejects.
//
// refSealV1 and refSealV2 are the envelopes Seal wrote before versions 2
// and 3, kept as the oracles for Open's version-1 and version-2 paths.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// refSealV1 seals payload as a version-1 envelope: the version-2 layout
// with a CRC-64/ECMA trailer.
func refSealV1(kind Kind, key string, payload []byte) []byte {
	b := []byte("EPAR")
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = append(b, byte(kind), 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crc64.MakeTable(crc64.ECMA)))
}

// refSealV2 seals payload as a version-2 envelope: the version-3 layout
// with no pad, byte 7 reserved as 0, and the same CRC-32C trailer.
func refSealV2(kind Kind, key string, payload []byte) []byte {
	b := []byte("EPAR")
	b = binary.LittleEndian.AppendUint16(b, 2)
	b = append(b, byte(kind), 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, uint64(crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))))
}

// refEncodePopulation is the EncodePopulation oracle.
func refEncodePopulation(p *synthpop.Population) *refEnc {
	e := &refEnc{b: make([]byte, 0, 64+16*len(p.Visits)+8*len(p.Persons))}
	e.population(p)
	return e
}

// refDecodePopulation is the DecodePopulation oracle.
func refDecodePopulation(payload []byte) (*synthpop.Population, bool, error) {
	d := &refDec{b: payload}
	p := d.population()
	if err := d.finish(); err != nil {
		return nil, d.lax, err
	}
	return p, d.lax, nil
}

// refEncodePlacement is the EncodePlacement oracle.
func refEncodePlacement(pl *Placement) *refEnc {
	e := &refEnc{b: make([]byte, 0, 128+16*len(pl.Pop.Visits)+4*(len(pl.PersonRank)+len(pl.LocationRank)))}
	e.population(pl.Pop)
	e.i32s(pl.PersonRank)
	e.i32s(pl.LocationRank)
	e.u32(uint32(pl.Ranks))
	e.str(pl.Label)
	if pl.SplitStats != nil {
		e.u8(1)
		s := pl.SplitStats
		e.f64(s.Threshold)
		e.u64(uint64(s.NumSplit))
		e.u64(uint64(s.NumFragments))
		e.u64(uint64(s.LocationsPre))
		e.u64(uint64(s.LocationsPost))
		e.f64(s.MaxLocWeightPre)
		e.f64(s.MaxLocWeightPost)
		e.u32(uint32(s.MaxDegreePre))
		e.u32(uint32(s.MaxDegreePost))
		e.f64(s.GrowthFrac)
	} else {
		e.u8(0)
	}
	if pl.Quality != nil {
		e.u8(1)
		q := pl.Quality
		e.u32(uint32(q.K))
		e.count(4, len(q.PartWeights))
		for _, pw := range q.PartWeights {
			e.i64s(pw)
		}
		e.i64s(q.TotalWeights)
		e.f64s(q.MaxOverAvg)
		e.u64(uint64(q.EdgeCut))
		e.u64(uint64(q.MaxPartCut))
		e.u64(uint64(q.TotalEdgeWeight))
	} else {
		e.u8(0)
	}
	return e
}

// refDecodePlacement is the DecodePlacement oracle; a stats flag
// other than 1 reads as absent.
func refDecodePlacement(payload []byte) (*Placement, bool, error) {
	d := &refDec{b: payload}
	pl := &Placement{}
	pl.Pop = d.population()
	pl.PersonRank = d.i32s()
	pl.LocationRank = d.i32s()
	pl.Ranks = int(d.u32())
	pl.Label = d.str()
	if d.flag() == 1 {
		s := &splitloc.Stats{}
		s.Threshold = d.f64()
		s.NumSplit = int(d.u64())
		s.NumFragments = int(d.u64())
		s.LocationsPre = int(d.u64())
		s.LocationsPost = int(d.u64())
		s.MaxLocWeightPre = d.f64()
		s.MaxLocWeightPost = d.f64()
		s.MaxDegreePre = int32(d.u32())
		s.MaxDegreePost = int32(d.u32())
		s.GrowthFrac = d.f64()
		pl.SplitStats = s
	}
	if d.flag() == 1 {
		q := &partition.Quality{}
		q.K = int(d.u32())
		// Each part-weight row costs at least its 8-byte length prefix.
		n := int(d.u32())
		if d.err == nil && n >= 0 && uint64(n) <= uint64(d.remaining())/8 {
			q.PartWeights = make([][]int64, n)
			for i := range q.PartWeights {
				q.PartWeights[i] = d.i64s()
			}
		} else if d.err == nil {
			d.fail("part weights count %d overruns payload", n)
		}
		q.TotalWeights = d.i64s()
		q.MaxOverAvg = d.f64s()
		q.EdgeCut = int64(d.u64())
		q.MaxPartCut = int64(d.u64())
		q.TotalEdgeWeight = int64(d.u64())
		pl.Quality = q
	}
	if err := d.finish(); err != nil {
		return nil, d.lax, err
	}
	return pl, d.lax, nil
}

// population encoding: name, persons, locations, visits, offsets, each
// as count-prefixed fixed-width records.
func (e *refEnc) population(p *synthpop.Population) {
	e.str(p.Name)
	e.count(8, len(p.Persons))
	for _, pe := range p.Persons {
		e.u8(uint8(pe.Age))
		e.u32(uint32(pe.Home))
	}
	e.count(8, len(p.Locations))
	for _, l := range p.Locations {
		e.u8(uint8(l.Type))
		e.u32(uint32(l.NumSub))
		e.u32(uint32(l.Weight))
		e.u32(uint32(l.Origin))
		e.u32(uint32(l.SubBase))
	}
	e.count(8, len(p.Visits))
	for _, v := range p.Visits {
		e.u32(uint32(v.Person))
		e.u32(uint32(v.Loc))
		e.u32(uint32(v.Sub))
		e.u16(uint16(v.Start))
		e.u16(uint16(v.End))
	}
	e.i32s(p.PersonVisitOffsets)
}

func (d *refDec) population() *synthpop.Population {
	p := &synthpop.Population{}
	p.Name = d.str()
	if n, ok := d.count(5); ok {
		p.Persons = make([]synthpop.Person, n)
		for i := range p.Persons {
			p.Persons[i].Age = synthpop.AgeGroup(d.u8())
			p.Persons[i].Home = int32(d.u32())
		}
	}
	if n, ok := d.count(17); ok {
		p.Locations = make([]synthpop.Location, n)
		for i := range p.Locations {
			p.Locations[i].Type = synthpop.LocationType(d.u8())
			p.Locations[i].NumSub = int32(d.u32())
			p.Locations[i].Weight = int32(d.u32())
			p.Locations[i].Origin = int32(d.u32())
			p.Locations[i].SubBase = int32(d.u32())
		}
	}
	if n, ok := d.count(16); ok {
		p.Visits = make([]synthpop.Visit, n)
		for i := range p.Visits {
			p.Visits[i].Person = int32(d.u32())
			p.Visits[i].Loc = int32(d.u32())
			p.Visits[i].Sub = int32(d.u32())
			p.Visits[i].Start = int16(d.u16())
			p.Visits[i].End = int16(d.u16())
		}
	}
	p.PersonVisitOffsets = d.i32s()
	return p
}

// refEnc appends fixed-width little-endian fields to a buffer.
type refEnc struct {
	b      []byte
	counts []refCount
}

// refCount locates one count or length field in an encoding.
type refCount struct{ off, width int }

// count writes a count or length field, recording where it went.
func (e *refEnc) count(width, n int) {
	e.counts = append(e.counts, refCount{len(e.b), width})
	if width == 8 {
		e.u64(uint64(n))
	} else {
		e.u32(uint32(n))
	}
}

func (e *refEnc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *refEnc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *refEnc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *refEnc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *refEnc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *refEnc) str(s string) {
	e.count(4, len(s))
	e.b = append(e.b, s...)
}
func (e *refEnc) i32s(s []int32) {
	e.count(8, len(s))
	for _, v := range s {
		e.u32(uint32(v))
	}
}
func (e *refEnc) i64s(s []int64) {
	e.count(8, len(s))
	for _, v := range s {
		e.u64(uint64(v))
	}
}
func (e *refEnc) f64s(s []float64) {
	e.count(8, len(s))
	for _, v := range s {
		e.f64(v)
	}
}

// refDec reads the same fields back with sticky-error bounds checking:
// the first out-of-range read poisons the decoder, every later read
// returns zero, and finish() reports the failure — so a truncated or
// garbled payload can never panic or allocate absurdly.
type refDec struct {
	b   []byte
	off int
	err error
	// lax is set when a flag byte other than 0 or 1 was read, which this
	// decoder took as absent (placement stats) or present (bools).
	lax bool
}

func (d *refDec) flag() uint8 {
	v := d.u8()
	d.lax = d.lax || v > 1
	return v
}

func (d *refDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrInvalid}, args...)...)
	}
}

func (d *refDec) remaining() int { return len(d.b) - d.off }

func (d *refDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, d.remaining())
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *refDec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (d *refDec) u16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}
func (d *refDec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (d *refDec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}
func (d *refDec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u64 element count and verifies count×elemSize fits in
// the remaining payload before the caller allocates. The division form
// cannot overflow, so an adversarial count near 2^64 fails cleanly
// instead of wrapping past the check into a makeslice panic.
func (d *refDec) count(elemSize int) (int, bool) {
	n := d.u64()
	if d.err != nil {
		return 0, false
	}
	if elemSize > 0 && n > uint64(d.remaining())/uint64(elemSize) {
		d.fail("count %d × %d bytes overruns payload", n, elemSize)
		return 0, false
	}
	return int(n), true
}

func (d *refDec) str() string {
	n := d.u32()
	s := d.take(int(n))
	if s == nil {
		return ""
	}
	return string(s)
}

func (d *refDec) i32s() []int32 {
	n, ok := d.count(4)
	if !ok {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.u32())
	}
	return out
}

func (d *refDec) i64s() []int64 {
	n, ok := d.count(8)
	if !ok {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(d.u64())
	}
	return out
}

func (d *refDec) f64s() []float64 {
	n, ok := d.count(8)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// finish reports the decoder's sticky error, or flags trailing garbage —
// a structurally-valid prefix followed by extra bytes is still not the
// artifact that was sealed.
func (d *refDec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrInvalid, len(d.b)-d.off)
	}
	return nil
}

// refEncodeCheckpoint is the EncodeCheckpoint oracle.
func refEncodeCheckpoint(cp *core.Checkpoint) *refEnc {
	e := &refEnc{b: make([]byte, 0, 64+14*len(cp.States))}
	e.u32(uint32(cp.Day))
	e.u64(uint64(cp.Cumulative))
	e.bool(cp.EventOn)
	e.i32s(cp.States)
	e.i32s(cp.Treatments)
	e.i32s(cp.DaysLeft)
	e.bools(cp.Infected)
	e.sets(cp.Infectious)
	e.sets(cp.Progressing)
	e.bools(cp.RuleFired)
	e.json(cp.Effects)
	e.json(cp.Days)
	return e
}

// refDecodeCheckpoint is the DecodeCheckpoint oracle.
func refDecodeCheckpoint(payload []byte) (*core.Checkpoint, bool, error) {
	d := &refDec{b: payload}
	cp := &core.Checkpoint{}
	cp.Day = int(d.u32())
	cp.Cumulative = int64(d.u64())
	cp.EventOn = d.bool()
	cp.States = d.i32s()
	cp.Treatments = d.i32s()
	cp.DaysLeft = d.i32s()
	cp.Infected = d.bools()
	cp.Infectious = d.sets("infectious")
	cp.Progressing = d.sets("progressing")
	cp.RuleFired = d.bools()
	d.json(&cp.Effects)
	d.json(&cp.Days)
	if err := d.finish(); err != nil {
		return nil, d.lax, err
	}
	return cp, d.lax, nil
}

// json encodes v as a length-prefixed JSON section.
func (e *refEnc) json(v any) {
	b, _ := json.Marshal(v)
	e.count(8, len(b))
	e.b = append(e.b, b...)
}

func (d *refDec) json(v any) {
	n, ok := d.count(1)
	if !ok {
		return
	}
	if err := json.Unmarshal(d.take(n), v); err != nil {
		d.fail("JSON section at offset %d: %v", d.off-n, err)
	}
}

// sets encodes one sparse set per PM.
func (e *refEnc) sets(sets [][]int32) {
	e.count(4, len(sets))
	for _, set := range sets {
		e.i32s(set)
	}
}

// sets decodes them, an empty set as nil, the way a snapshot holds it.
// Each set costs at least its 8-byte length prefix.
func (d *refDec) sets(what string) [][]int32 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.remaining())/8 {
		d.fail("%s set count %d overruns payload", what, n)
		return nil
	}
	out := make([][]int32, n)
	for i := range out {
		if set := d.i32s(); len(set) > 0 {
			out[i] = set
		}
	}
	return out
}

func (e *refEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (d *refDec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool at offset %d", d.off-1)
		return false
	}
}

// bools encodes a []bool with nil-ness preserved (flag 0 = nil); the
// decoder reads any other flag as present.
func (e *refEnc) bools(s []bool) {
	if s == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.count(8, len(s))
	for _, v := range s {
		e.bool(v)
	}
}

func (d *refDec) bools() []bool {
	if d.flag() == 0 {
		return nil
	}
	n, ok := d.count(1)
	if !ok {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.bool()
	}
	return out
}
