package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/partition"
	"repro/internal/splitloc"
	"repro/internal/synthpop"
)

// Placement is the serializable form of a built data distribution: the
// (possibly split) population it simulates plus the rank assignments and
// provenance. It mirrors the root package's Placement field for field;
// the root package converts between the two, because importing it here
// would be a cycle.
type Placement struct {
	Pop          *synthpop.Population
	PersonRank   []int32
	LocationRank []int32
	Ranks        int
	Label        string
	SplitStats   *splitloc.Stats
	Quality      *partition.Quality
}

// EncodePopulation serializes a population to its deterministic binary
// payload (wrap with Seal before writing to disk).
func EncodePopulation(p *synthpop.Population) []byte {
	e := &enc{b: make([]byte, 0, populationSize(p))}
	e.population(p)
	return e.b
}

// DecodePopulation parses an EncodePopulation payload. Structural
// damage wraps ErrInvalid. The population's Visits and PersonVisitOffsets
// may be views of payload's memory (see dec.view), so the caller must not
// modify payload afterwards.
func DecodePopulation(payload []byte) (*synthpop.Population, error) {
	d := &dec{b: payload, view: true}
	p := d.population()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodePlacement serializes a placement (including its embedded
// population — a split population is private to its placement, so the
// artifact must be self-contained).
func EncodePlacement(pl *Placement) []byte {
	// 130 bytes hold the scalars and counts with both split stats and
	// quality; the quality adds its weight vectors. A short estimate would
	// copy the whole payload into a regrown buffer.
	size := populationSize(pl.Pop) + 4*(len(pl.PersonRank)+len(pl.LocationRank)) + len(pl.Label) + 130
	if q := pl.Quality; q != nil {
		size += 8 * (len(q.TotalWeights) + len(q.MaxOverAvg) + 2)
		for _, pw := range q.PartWeights {
			size += 8 * (len(pw) + 1)
		}
	}
	e := &enc{b: make([]byte, 0, size)}
	e.population(pl.Pop)
	e.i32s(pl.PersonRank)
	e.i32s(pl.LocationRank)
	e.u32(uint32(pl.Ranks))
	e.str(pl.Label)
	e.bool(pl.SplitStats != nil)
	if pl.SplitStats != nil {
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
	}
	e.bool(pl.Quality != nil)
	if pl.Quality != nil {
		q := pl.Quality
		e.u32(uint32(q.K))
		e.u32(uint32(len(q.PartWeights)))
		for _, pw := range q.PartWeights {
			e.i64s(pw)
		}
		e.i64s(q.TotalWeights)
		e.f64s(q.MaxOverAvg)
		e.u64(uint64(q.EdgeCut))
		e.u64(uint64(q.MaxPartCut))
		e.u64(uint64(q.TotalEdgeWeight))
	}
	return e.b
}

// DecodePlacement parses an EncodePlacement payload. Its population's
// visits and offsets and its rank maps may be views of payload's memory,
// so the caller must not modify payload afterwards.
func DecodePlacement(payload []byte) (*Placement, error) {
	d := &dec{b: payload, view: true}
	pl := &Placement{}
	pl.Pop = d.population()
	pl.PersonRank = d.i32s()
	pl.LocationRank = d.i32s()
	d.view = false // the quality's few words are copied wherever they lie
	pl.Ranks = int(d.u32())
	pl.Label = d.str()
	if d.bool() {
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
	if d.bool() {
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
		return nil, err
	}
	return pl, nil
}

// populationSize is the length of a population's encoding.
func populationSize(p *synthpop.Population) int {
	return 36 + len(p.Name) + 5*len(p.Persons) + 17*len(p.Locations) + 16*len(p.Visits) + 4*len(p.PersonVisitOffsets)
}

// population encoding: name, persons, locations, visits, offsets, each
// array a count-prefixed block of fixed-width records.
func (e *enc) population(p *synthpop.Population) {
	e.str(p.Name)
	b := e.block(len(p.Persons), 5)
	for i, pe := range p.Persons {
		r := b[5*i : 5*i+5]
		r[0] = uint8(pe.Age)
		le.PutUint32(r[1:], uint32(pe.Home))
	}
	b = e.block(len(p.Locations), 17)
	for i, l := range p.Locations {
		r := b[17*i : 17*i+17]
		r[0] = uint8(l.Type)
		le.PutUint32(r[1:], uint32(l.NumSub))
		le.PutUint32(r[5:], uint32(l.Weight))
		le.PutUint32(r[9:], uint32(l.Origin))
		le.PutUint32(r[13:], uint32(l.SubBase))
	}
	putBlock(e, p.Visits, 16, putVisits)
	e.i32s(p.PersonVisitOffsets)
}

func (d *dec) population() *synthpop.Population {
	p := &synthpop.Population{}
	p.Name = d.str()
	if n, b, ok := d.block(5); ok {
		persons := make([]synthpop.Person, n)
		for i := range persons {
			r := b[5*i : 5*i+5]
			persons[i] = synthpop.Person{Age: synthpop.AgeGroup(r[0]), Home: int32(le.Uint32(r[1:]))}
		}
		p.Persons = persons
	}
	if n, b, ok := d.block(17); ok {
		locs := make([]synthpop.Location, n)
		for i := range locs {
			r := b[17*i : 17*i+17]
			locs[i] = synthpop.Location{Type: synthpop.LocationType(r[0]),
				NumSub: int32(le.Uint32(r[1:])), Weight: int32(le.Uint32(r[5:])),
				Origin: int32(le.Uint32(r[9:])), SubBase: int32(le.Uint32(r[13:]))}
		}
		p.Locations = locs
	}
	p.Visits = getBlock(d, 16, getVisits)
	p.PersonVisitOffsets = d.i32s()
	return p
}

var le = binary.LittleEndian

// enc appends little-endian fields to a buffer: scalars one at a time,
// arrays as one block of fixed-width records written in place.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = le.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = le.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// block appends the u64 count n and grows the buffer, once, by n records
// of size bytes, which it returns for the caller to fill.
func (e *enc) block(n, size int) []byte {
	e.u64(uint64(n))
	off := len(e.b)
	e.b = slices.Grow(e.b, n*size)[:off+n*size]
	return e.b[off:]
}

func (e *enc) i32s(s []int32)   { putBlock(e, s, 4, putI32s) }
func (e *enc) i64s(s []int64)   { putBlock(e, s, 8, putI64s) }
func (e *enc) f64s(s []float64) { putBlock(e, s, 8, putF64s) }

// dec reads the same fields back with sticky-error bounds checking:
// the first out-of-range read poisons the decoder, every later read
// returns zero, and finish() reports the failure — so a truncated or
// garbled payload can never panic or allocate absurdly. An array's count
// is checked against the remaining payload before its block is taken
// whole, so records decode without a check of their own.
// With view set, getBlock returns an aligned block as a view of b, not a
// copy; DecodeCheckpoint leaves it unset, since a checkpoint owns its arrays.
type dec struct {
	b    []byte
	off  int
	err  error
	view bool
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrInvalid}, args...)...)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) take(n int) []byte {
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

func (d *dec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (d *dec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return le.Uint32(s)
}
func (d *dec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return le.Uint64(s)
}
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u64 element count and verifies count×elemSize fits in
// the remaining payload before the caller allocates. The division form
// cannot overflow, so an adversarial count near 2^64 fails cleanly
// instead of wrapping past the check into a makeslice panic.
func (d *dec) count(elemSize int) (int, bool) {
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

// block reads a count and takes its n records of size bytes as one
// slice; the count check guarantees the take succeeds.
func (d *dec) block(size int) (n int, b []byte, ok bool) {
	if n, ok = d.count(size); ok {
		b = d.take(n * size)
	}
	return n, b, ok
}

func (d *dec) str() string {
	n := d.u32()
	s := d.take(int(n))
	if s == nil {
		return ""
	}
	return string(s)
}

func (d *dec) i32s() []int32   { return getBlock(d, 4, getI32s) }
func (d *dec) i64s() []int64   { return getBlock(d, 8, getI64s) }
func (d *dec) f64s() []float64 { return getBlock(d, 8, getF64s) }

// The per-field record codecs write s into, or fill out from, a block b
// one record at a time. They are the only path on a big-endian host, where
// putBlock and getBlock cannot move a block whole.
func putI32s(b []byte, s []int32) {
	for i, v := range s {
		le.PutUint32(b[4*i:4*i+4], uint32(v))
	}
}
func getI32s(out []int32, b []byte) {
	for i := range out {
		out[i] = int32(le.Uint32(b[4*i : 4*i+4]))
	}
}
func putI64s(b []byte, s []int64) {
	for i, v := range s {
		le.PutUint64(b[8*i:8*i+8], uint64(v))
	}
}
func getI64s(out []int64, b []byte) {
	for i := range out {
		out[i] = int64(le.Uint64(b[8*i : 8*i+8]))
	}
}
func putF64s(b []byte, s []float64) {
	for i, v := range s {
		le.PutUint64(b[8*i:8*i+8], math.Float64bits(v))
	}
}
func getF64s(out []float64, b []byte) {
	for i := range out {
		out[i] = math.Float64frombits(le.Uint64(b[8*i : 8*i+8]))
	}
}
func putVisits(b []byte, s []synthpop.Visit) {
	for i, v := range s {
		r := b[16*i : 16*i+16]
		le.PutUint32(r, uint32(v.Person))
		le.PutUint32(r[4:], uint32(v.Loc))
		le.PutUint32(r[8:], uint32(v.Sub))
		le.PutUint16(r[12:], uint16(v.Start))
		le.PutUint16(r[14:], uint16(v.End))
	}
}
func getVisits(out []synthpop.Visit, b []byte) {
	for i := range out {
		r := b[16*i : 16*i+16]
		out[i] = synthpop.Visit{Person: int32(le.Uint32(r)), Loc: int32(le.Uint32(r[4:])),
			Sub: int32(le.Uint32(r[8:])), Start: int16(le.Uint16(r[12:])), End: int16(le.Uint16(r[14:]))}
	}
}

// finish reports the decoder's sticky error, or flags trailing garbage —
// a structurally-valid prefix followed by extra bytes is still not the
// artifact that was sealed.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrInvalid, len(d.b)-d.off)
	}
	return nil
}
