package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"deepthermo/internal/rng"
)

// The tests below hold exp, log and tanh to the math package by
// math.Float64bits — whichever body the build selected, so they check the
// AVX2+FMA replay where it runs and the portable loops under purego and
// off amd64. Every comparison covers the whole backing array, guard
// elements included. Any NaN matches any NaN: payloads are not part of
// the promise (see sameValues).

type transcendental struct {
	name   string
	vector func(dst, x []float64)
	scalar func(float64) float64
	// draws are the ranges TestTranscendentalsDraws samples, a million
	// inputs each; typical is the one the length sweep uses.
	draws   map[string]func(*rng.Source) float64
	typical string
	// edges are the inputs where a branch, a fallback lane or a rounding
	// boundary of the scalar code sits.
	edges []float64
}

// rawBits draws an arbitrary bit pattern: any sign, exponent and payload,
// so NaNs, infinities, denormals and zeros' neighbours all occur.
func rawBits(src *rng.Source) float64 { return math.Float64frombits(src.Uint64()) }

func uniform(lo, hi float64) func(*rng.Source) float64 {
	return func(src *rng.Source) float64 { return lo + (hi-lo)*src.Float64() }
}

// around returns v, -v and their two nearest neighbours on either side.
func around(vs ...float64) []float64 {
	var out []float64
	for _, v := range vs {
		for _, s := range []float64{v, -v} {
			lo, hi := s, s
			out = append(out, s)
			for i := 0; i < 2; i++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				out = append(out, lo, hi)
			}
		}
	}
	return out
}

// commonEdges are the special values every function must pass through.
var commonEdges = append(around(0, 5e-324, 2.2250738585072014e-308, 1, math.MaxFloat64, 1e-300, 1e300),
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff0_0000_0000_0abc))

func transcendentals() []transcendental {
	const (
		expOverflow = 7.09782712893384e+02 // archExp's overflow test
		expNormal   = 708.3964185322641    // -x where e^x leaves the normals
		expZero     = 745.1332191019412    // -x where e^x rounds to 0
		tanhBig     = 44.014845965556525   // 0.5*MAXLOG in math.tanh
	)
	// x*LOG2E half-way between integers: the conversion rounds to even.
	var expTies []float64
	for _, k := range []float64{0.5, 1.5, 2.5, 100.5, 1021.5} {
		expTies = append(expTies, k*math.Ln2)
	}
	// Mantissas at and around √2/2, where archLog moves k and f1.
	var logSqrt2 []float64
	for _, e := range []int{-1074, -1022, -600, -3, 0, 1, 2, 500, 1023} {
		for _, v := range around(math.Ldexp(math.Sqrt2/2, e)) {
			if v > 0 {
				logSqrt2 = append(logSqrt2, v)
			}
		}
	}
	return []transcendental{
		{
			name: "exp", vector: exp, scalar: math.Exp, typical: "normal×10",
			draws: map[string]func(*rng.Source) float64{
				"normal×10":        func(src *rng.Source) float64 { return 10 * src.NormFloat64() },
				"[-750, 750]":      uniform(-750, 750),
				"softmax [-50, 0]": uniform(-50, 0),
				"raw bits":         rawBits,
			},
			edges: append(append(around(708, expOverflow, expNormal, expZero, 1e-20, math.Ln2, 88.0296919311130543), expTies...), commonEdges...),
		},
		{
			name: "log", vector: log, scalar: math.Log, typical: "[0.5, 2]",
			draws: map[string]func(*rng.Source) float64{
				"(0, 1]":        func(src *rng.Source) float64 { return 1 - src.Float64() },
				"[0.5, 2]":      uniform(0.5, 2),
				"positive bits": func(src *rng.Source) float64 { return math.Abs(rawBits(src)) },
				"raw bits":      rawBits,
			},
			edges: append(append(logSqrt2, around(0.5, 2, math.E, 1e-10)...), commonEdges...),
		},
		{
			name: "tanh", vector: tanh, scalar: math.Tanh, typical: "normal",
			draws: map[string]func(*rng.Source) float64{
				"normal":    func(src *rng.Source) float64 { return src.NormFloat64() },
				"[-50, 50]": uniform(-50, 50),
				"[-1, 1]":   uniform(-1, 1),
				"raw bits":  rawBits,
			},
			edges: append(around(0.625, tanhBig, 1e-8, 20, 354.5), commonEdges...),
		},
	}
}

// mathOf writes the reference: want = buf with want[od+i] = f(x[i]).
func mathOf(want, buf []float64, od int, x []float64, f func(float64) float64) {
	copy(want, buf)
	for i, v := range x {
		want[od+i] = f(v)
	}
}

// fillFrom fills x from draw, with an edge value in about one slot of six.
func fillFrom(x []float64, src *rng.Source, draw func(*rng.Source) float64, edges []float64) {
	for i := range x {
		if src.Intn(6) == 0 {
			x[i] = edges[src.Intn(len(edges))]
		} else {
			x[i] = draw(src)
		}
	}
}

// TestTranscendentalsMatchMath runs every length 0–130 at every pair of
// start offsets 0–3, then in place, so each tail length, each lane a
// fallback group can start at and each store past the end shows.
func TestTranscendentalsMatchMath(t *testing.T) {
	src := rng.New(15)
	const guard = 4
	for _, fn := range transcendentals() {
		draw := fn.draws[fn.typical]
		xbuf := make([]float64, 130+3+guard)
		dbuf := make([]float64, len(xbuf))
		got := make([]float64, len(xbuf))
		want := make([]float64, len(xbuf))
		for n := 0; n <= 130; n++ {
			for ox := 0; ox < 4; ox++ {
				for od := 0; od < 4; od++ {
					fillFrom(xbuf, src, draw, fn.edges)
					fillFrom(dbuf, src, draw, fn.edges) // stale contents: overwritten, or past the end kept
					x := xbuf[ox : ox+n]
					copy(got, dbuf)
					fn.vector(got[od:od+n], x)
					mathOf(want, dbuf, od, x, fn.scalar)
					sameValues(t, got, want, "%s n=%d x+%d dst+%d", fn.name, n, ox, od)
				}
			}
			fillFrom(xbuf, src, draw, fn.edges)
			copy(got, xbuf)
			fn.vector(got[1:1+n], got[1:1+n])
			mathOf(want, xbuf, 1, xbuf[1:1+n], fn.scalar)
			sameValues(t, got, want, "%s in place n=%d", fn.name, n)
		}
	}
}

// TestTranscendentalsDraws compares a million inputs of each range, a
// chunk of 1000 at a time, longer than one assembler call covers.
func TestTranscendentalsDraws(t *testing.T) {
	const draws, chunk = 1_000_000, 1000
	x := make([]float64, chunk)
	got := make([]float64, chunk)
	want := make([]float64, chunk)
	for _, fn := range transcendentals() {
		for name, draw := range fn.draws {
			src := rng.New(16)
			for done := 0; done < draws; done += chunk {
				for i := range x {
					x[i] = draw(src)
				}
				fn.vector(got, x)
				mathOf(want, want, 0, x, fn.scalar)
				sameValues(t, got, want, "%s %s, draws %d–%d", fn.name, name, done, done+chunk)
			}
		}
	}
}

// TestTranscendentalsEdges puts each edge value in each lane of a group
// of ordinary inputs, then runs the whole edge table as one input.
func TestTranscendentalsEdges(t *testing.T) {
	src := rng.New(17)
	x := make([]float64, 12)
	got := make([]float64, len(x))
	want := make([]float64, len(x))
	for _, fn := range transcendentals() {
		for _, v := range fn.edges {
			for lane := 0; lane < 4; lane++ {
				for i := range x {
					x[i] = 0.5 + src.Float64()
				}
				x[4+lane] = v
				fn.vector(got, x)
				mathOf(want, want, 0, x, fn.scalar)
				sameValues(t, got, want, "%s(%g = %x) in lane %d", fn.name, v, math.Float64bits(v), lane)
			}
		}
		all := append([]float64(nil), fn.edges...)
		out := make([]float64, len(all))
		ref := make([]float64, len(all))
		fn.vector(out, all)
		mathOf(ref, ref, 0, all, fn.scalar)
		sameValues(t, out, ref, "%s over the edge table", fn.name)
	}
}

// FuzzTranscendentals checks the same property on arbitrary inputs of
// four to seven elements: one whole group and a tail, read as raw bits.
func FuzzTranscendentals(f *testing.F) {
	seed := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0.1, -0.7, 3, 0.625))
	f.Add(seed(708, 709.78, -745.2, 44.014845965556525, math.Sqrt2/2))
	f.Add(seed(math.NaN(), math.Inf(-1), 5e-324, -0.0, 1, 2, 1e300))
	fns := transcendentals()
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 7)
		if n < 4 {
			return
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		got := make([]float64, n)
		want := make([]float64, n)
		for _, fn := range fns {
			fn.vector(got, x)
			mathOf(want, want, 0, x, fn.scalar)
			sameValues(t, got, want, "%s(%v)", fn.name, x)
		}
	})
}

// BenchmarkTranscendentals times each primitive against its math loop at
// the lengths the VAE runs them: 64 (the 16-site, 4-species softmax block)
// and 96 (a hidden layer's tanh).
func BenchmarkTranscendentals(b *testing.B) {
	for _, fn := range transcendentals() {
		for _, n := range []int{64, 96} {
			src := rng.New(18)
			x := make([]float64, n)
			draw := fn.draws[fn.typical]
			for i := range x {
				x[i] = draw(src)
			}
			dst := make([]float64, n)
			b.Run(fmt.Sprintf("%s/n=%d/tensor", fn.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn.vector(dst, x)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/math", fn.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, v := range x {
						dst[j] = fn.scalar(v)
					}
				}
			})
		}
	}
}
