package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewStream(11)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewStream(3)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStream(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewStream(5)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := NewStream(9)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative value %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestParetoProperties(t *testing.T) {
	s := NewStream(13)
	xm, alpha := 2.0, 2.5
	n := 100000
	min := math.Inf(1)
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto below scale: %v < %v", v, xm)
		}
		if v < min {
			min = v
		}
		sum += v
	}
	// E[X] = alpha*xm/(alpha-1) for alpha > 1.
	want := alpha * xm / (alpha - 1)
	mean := sum / float64(n)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("Pareto mean = %v, want ~%v", mean, want)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 5.5, 40} {
		s := NewStream(uint64(lambda * 100))
		n := 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	s := NewStream(77)
	for i := 0; i < 10000; i++ {
		if s.Poisson(100) < 0 {
			t.Fatal("Poisson returned negative count")
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive lambda should be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermInt32MatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 1000} {
		a, b := NewStream(uint64(n)+3), NewStream(uint64(n)+3)
		want := a.Perm(n)
		got := make([]int32, n)
		b.PermInt32(got)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("PermInt32(%d)[%d] = %d, Perm has %d", n, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: streams differ after the permutation", n)
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Fatal("Hash is not deterministic")
	}
	if Hash(1, 2, 3) == Hash(3, 2, 1) {
		t.Fatal("Hash should be order-sensitive")
	}
	if Hash(1) == Hash(1, 0) {
		t.Fatal("Hash should be length-sensitive")
	}
}

// Continuing a Hash from any split point of a tuple gives the tuple's Hash,
// and Hash is still the loop it was before Fold was split out of it.
func TestFoldMatchesHash(t *testing.T) {
	s := NewStream(20261016)
	for i := 0; i < 2000; i++ {
		keys := make([]uint64, i%9)
		for j := range keys {
			keys[j] = s.Uint64() >> (s.Uint64() % 64) // small keys as well as wide ones
		}
		want := uint64(0x2545f4914f6cdd1d)
		for _, k := range keys {
			want = mix64(want ^ mix64(k+gamma))
		}
		if got := Hash(keys...); got != want {
			t.Fatalf("Hash%v = %#x, want %#x", keys, got, want)
		}
		for split := range len(keys) + 1 {
			if got := Fold(Hash(keys[:split]...), keys[split:]...); got != want {
				t.Fatalf("Fold(Hash%v, %v...) = %#x, want Hash %#x", keys[:split], keys[split:], got, want)
			}
		}
	}
}

func TestKeyedFloat64Properties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		v := KeyedFloat64(a, b, c)
		return v >= 0 && v < 1 && v == KeyedFloat64(a, b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedFloat64Uniformity(t *testing.T) {
	// Bucket keyed draws over sequential keys: must look uniform, i.e.
	// sequential ids must not correlate.
	const buckets = 16
	counts := make([]int, buckets)
	n := 160000
	for i := 0; i < n; i++ {
		v := KeyedFloat64(uint64(i), 42)
		counts[int(v*buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d has %d draws, want ~%v", b, c, want)
		}
	}
}

func TestKeyedIntnRange(t *testing.T) {
	f := func(a, b uint64) bool {
		v := KeyedIntn(10, a, b)
		return v >= 0 && v < 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedStreamIndependence(t *testing.T) {
	a := KeyedStream(1, 2)
	b := KeyedStream(1, 2)
	c := KeyedStream(2, 1)
	if a.Uint64() != b.Uint64() {
		t.Fatal("KeyedStream with equal keys diverged")
	}
	a2, c2 := a.Uint64(), c.Uint64()
	if a2 == c2 {
		t.Fatal("KeyedStream with different keys coincided")
	}
}

func BenchmarkStreamUint64(b *testing.B) {
	s := NewStream(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkKeyedFloat64(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += KeyedFloat64(uint64(i), 17, 3)
	}
	_ = sink
}
