package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(7)
	for i := 0; i < 100000; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += src.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %g too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	src := New(3)
	err := quick.Check(func(n uint8) bool {
		m := int(n%100) + 1
		v := src.Intn(m)
		return v >= 0 && v < m
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	src := New(5)
	const buckets, n = 10, 500000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[src.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d counts, want ~%g", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	src := New(13)
	var sum, sum2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := src.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %g, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := src.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestJumpChangesStream(t *testing.T) {
	a, b := New(99), New(99)
	b.Jump()
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			t.Fatal("jumped stream collided with original")
		}
	}
}

func TestLongJumpChangesStream(t *testing.T) {
	a, b := New(99), New(99)
	b.LongJump()
	if a.Uint64() == b.Uint64() {
		t.Fatal("long-jumped stream equals original")
	}
}

func TestNewStreamsIndependent(t *testing.T) {
	streams := NewStreams(42, 8)
	if len(streams) != 8 {
		t.Fatalf("got %d streams", len(streams))
	}
	// First outputs must be pairwise distinct.
	seen := map[uint64]int{}
	for i, s := range streams {
		v := s.Uint64()
		if j, ok := seen[v]; ok {
			t.Fatalf("streams %d and %d start identically", i, j)
		}
		seen[v] = i
	}
}

func TestNewStreamsReproducible(t *testing.T) {
	a := NewStreams(7, 4)
	b := NewStreams(7, 4)
	for i := range a {
		for j := 0; j < 10; j++ {
			if a[i].Uint64() != b[i].Uint64() {
				t.Fatalf("stream %d not reproducible", i)
			}
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	src := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	src.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Intn(1000)
	}
}

// mul64 is the hand-rolled 128-bit product Intn used before math/bits.Mul64,
// kept as the reference the intrinsic is held to.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	lo = a * b
	return
}

// TestIntnMatchesReferenceMul64 replays Intn's rejection loop on the
// reference product: same draws consumed, same values returned. The last
// bound does not fit an int, so there the loop itself is the subject.
func TestIntnMatchesReferenceMul64(t *testing.T) {
	refIntn := func(src *Source, bound uint64) uint64 {
		for {
			hi, lo := mul64(src.Uint64(), bound)
			if lo >= bound || lo >= (-bound)%bound {
				return hi
			}
		}
	}
	for _, bound := range []uint64{1, 2, 54, 1<<31 + 1, 1<<63 + 5} {
		got, ref := New(bound), New(bound)
		for i := 0; i < 1_000_000; i++ {
			want := refIntn(ref, bound)
			var v uint64
			if bound <= math.MaxInt {
				v = uint64(got.Intn(int(bound)))
			} else {
				x := got.Uint64()
				hi, lo := bits.Mul64(x, bound)
				for lo < bound && lo < (-bound)%bound {
					x = got.Uint64()
					hi, lo = bits.Mul64(x, bound)
				}
				v = hi
			}
			if v != want || got.s != ref.s {
				t.Fatalf("bound %d draw %d: got %d (state %x), reference %d (state %x)", bound, i, v, got.s, want, ref.s)
			}
		}
	}
}
