// Package xrand provides deterministic, partition-invariant random number
// generation for the simulation.
//
// EpiSimdemics requires that stochastic outcomes (health-state transitions,
// dwell times, transmission trials) be functions of simulation *content*
// (person ids, day numbers, interaction pairs) rather than of execution
// order. Otherwise changing the data distribution (RR vs GP vs splitLoc)
// or the number of PEs would change the epidemic itself, making performance
// comparisons meaningless and tests impossible. The package therefore
// exposes two layers:
//
//   - Stream: a fast sequential SplitMix64 generator, used where a seeded
//     sequence is fine (population synthesis).
//   - Keyed draws: stateless hash-based draws keyed by tuples of ids, used
//     inside the simulation day loop so that every draw is reproducible no
//     matter where or when it executes.
package xrand

import "math"

// Stream is a sequential SplitMix64 pseudo random number generator.
// SplitMix64 passes BigCrush, has a 2^64 period, and is trivially seedable,
// which is all the simulation needs; crypto quality is irrelevant here.
// The zero value is a valid stream seeded with 0.
type Stream struct {
	state uint64
}

// NewStream returns a Stream seeded with seed.
func NewStream(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Seed resets the stream to the given seed.
func (s *Stream) Seed(seed uint64) { s.state = seed }

const (
	gamma = 0x9e3779b97f4a7c15 // golden-ratio increment for the Weyl sequence
	mulA  = 0xbf58476d1ce4e5b9
	mulB  = 0x94d049bb133111eb
)

// mix64 is the SplitMix64 output function: a strong 64-bit finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mulA
	z = (z ^ (z >> 27)) * mulB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64-bit value in the stream.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Float64 returns the next value uniformly distributed in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, via the Box-Muller transform.
func (s *Stream) NormFloat64() float64 {
	// Box-Muller: cheap enough for synthesis workloads and has no
	// rejection loop, so it consumes a fixed number of stream values,
	// keeping generation deterministic under refactoring.
	u1 := s.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (s *Stream) ExpFloat64() float64 {
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}

// Pareto returns a Pareto(xm, alpha) distributed value: the canonical
// heavy-tailed capacity/degree generator. xm is the scale (minimum value),
// alpha the tail exponent; smaller alpha means heavier tail.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Poisson returns a Poisson(lambda) distributed count using Knuth's
// algorithm for small lambda and a normal approximation above 30, which is
// accurate to well under the noise floor of the workloads generated here.
func (s *Stream) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := math.Round(lambda + math.Sqrt(lambda)*s.NormFloat64())
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Hash combines an arbitrary tuple of 64-bit keys into a single
// well-mixed 64-bit hash. It is the basis of all keyed draws.
func Hash(keys ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, k := range keys {
		h ^= mix64(k + gamma)
		h = mix64(h)
	}
	return h
}

// KeyedFloat64 returns a uniform value in [0,1) determined solely by the
// key tuple. Identical keys always produce identical values, regardless of
// call order, goroutine, or data layout.
func KeyedFloat64(keys ...uint64) float64 {
	return float64(Hash(keys...)>>11) / (1 << 53)
}

// KeyedIntn returns a uniform integer in [0,n) determined solely by the
// key tuple. It panics if n <= 0.
func KeyedIntn(n int, keys ...uint64) int {
	if n <= 0 {
		panic("xrand: KeyedIntn with non-positive n")
	}
	return int(Hash(keys...) % uint64(n))
}

// KeyedStream returns a Stream whose seed is derived from the key tuple.
// Useful when a keyed site needs several draws (e.g. a person's schedule
// for one day).
func KeyedStream(keys ...uint64) *Stream {
	return &Stream{state: Hash(keys...)}
}
