package dos

import (
	"math"
	"testing"
	"testing/quick"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 0, 10); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := New(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

func TestBinMapping(t *testing.T) {
	d, err := New(-1, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bin(-1) != 0 {
		t.Errorf("Bin(-1) = %d", d.Bin(-1))
	}
	if d.Bin(-1.0001) != -1 {
		t.Error("below range not rejected")
	}
	if d.Bin(0.9999) != 19 {
		t.Errorf("Bin(0.9999) = %d", d.Bin(0.9999))
	}
	if d.Bin(1.5) != -1 {
		t.Error("above range not rejected")
	}
	// Top edge is tolerated by the fp guard.
	if d.Bin(1.0) != 19 {
		t.Errorf("Bin(EMax) = %d, want clamped 19", d.Bin(1.0))
	}
	if e := d.BinEnergy(0); math.Abs(e-(-0.95)) > 1e-12 {
		t.Errorf("BinEnergy(0) = %g", e)
	}
}

// TestBinOutOfRangeTable holds Bin to its contract at the values whose int
// conversion Go leaves to the implementation: every energy outside the
// window, NaN and the infinities included, maps to -1.
func TestBinOutOfRangeTable(t *testing.T) {
	d, err := New(-1, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		e    float64
		want int
	}{
		{math.NaN(), -1},
		{math.Inf(1), -1},
		{math.Inf(-1), -1},
		{1e300, -1},
		{-1e300, -1},
		{math.MaxFloat64, -1},
		{1e19, -1}, // above the int64 range, below +Inf
		{math.Nextafter(-1, math.Inf(-1)), -1},
		{1 + 1e-9, -1},
		{-1, 0},
		{0, 10},
		{math.Nextafter(1, 0), 19},
		{1, 19},
	} {
		if got := d.Bin(c.e); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestBinRoundTrip(t *testing.T) {
	d, _ := New(-3, 7, 137)
	err := quick.Check(func(raw uint16) bool {
		i := int(raw) % 137
		return d.Bin(d.BinEnergy(i)) == i
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpanAndVisited(t *testing.T) {
	d, _ := New(0, 10, 10)
	if d.Span() != 0 {
		t.Error("empty DOS has nonzero span")
	}
	if _, _, ok := d.VisitedRange(); ok {
		t.Error("empty DOS reports visited range")
	}
	d.LogG[2] = 5
	d.LogG[7] = 105
	lo, hi, ok := d.VisitedRange()
	if !ok || lo != 2 || hi != 7 {
		t.Errorf("VisitedRange = %d,%d,%v", lo, hi, ok)
	}
	if s := d.Span(); s != 100 {
		t.Errorf("Span = %g, want 100", s)
	}
	if !d.Visited(2) || d.Visited(3) {
		t.Error("Visited wrong")
	}
}

func TestNormalizeTo(t *testing.T) {
	d, _ := New(0, 4, 4)
	d.LogG[0] = 0
	d.LogG[1] = math.Log(3)
	// Total = 4 states; normalize to ln 100.
	d.NormalizeTo(math.Log(100))
	if got := d.LogTotal(); math.Abs(got-math.Log(100)) > 1e-12 {
		t.Errorf("LogTotal after normalize = %g", got)
	}
	// Ratios preserved.
	if r := d.LogG[1] - d.LogG[0]; math.Abs(r-math.Log(3)) > 1e-12 {
		t.Errorf("ratio changed: %g", r)
	}
}

func TestLogSumExp(t *testing.T) {
	if v := LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(v, -1) {
		t.Errorf("all -inf → %g", v)
	}
	if v := LogSumExp([]float64{0, 0}); math.Abs(v-math.Log(2)) > 1e-12 {
		t.Errorf("lse(0,0) = %g", v)
	}
	// Huge values must not overflow.
	if v := LogSumExp([]float64{10000, 10000}); math.Abs(v-(10000+math.Log(2))) > 1e-9 {
		t.Errorf("lse(1e4,1e4) = %g", v)
	}
	if v := LogSumExp([]float64{5, math.Inf(-1)}); math.Abs(v-5) > 1e-12 {
		t.Errorf("lse(5,-inf) = %g", v)
	}
}

func TestLogMultinomial(t *testing.T) {
	// 4 choose 2 = 6.
	lg, err := LogMultinomial(4, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lg-math.Log(6)) > 1e-12 {
		t.Errorf("LogMultinomial(4;2,2) = %g, want ln 6", lg)
	}
	// 8!/(2!2!2!2!) = 2520.
	lg, err = LogMultinomial(8, []int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lg-math.Log(2520)) > 1e-9 {
		t.Errorf("LogMultinomial(8;2⁴) = %g, want ln 2520", lg)
	}
	if _, err := LogMultinomial(4, []int{3, 2}); err == nil {
		t.Error("bad counts accepted")
	}
	if _, err := LogMultinomial(4, []int{-1, 5}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestShiftOnlyVisited(t *testing.T) {
	d, _ := New(0, 3, 3)
	d.LogG[1] = 2
	d.Shift(5)
	if d.LogG[1] != 7 {
		t.Errorf("visited bin not shifted")
	}
	if !math.IsInf(d.LogG[0], -1) {
		t.Errorf("unvisited bin became finite")
	}
}

func TestCloneIndependent(t *testing.T) {
	d, _ := New(0, 3, 3)
	d.LogG[0] = 1
	c := d.Clone()
	c.LogG[0] = 9
	if d.LogG[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMergeTwoWindows(t *testing.T) {
	// True ln g(E) = E over [0, 10); window A covers bins 0..5, B 4..9,
	// B's values offset by an arbitrary gauge constant.
	a, _ := New(0, 6, 6)
	b, _ := New(4, 10, 6)
	for i := 0; i < 6; i++ {
		a.LogG[i] = a.BinEnergy(i)
		b.LogG[i] = b.BinEnergy(i) + 37.5 // gauge offset
	}
	m, err := Merge([]*LogDOS{b, a}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	if m.Bins() != 10 {
		t.Fatalf("merged bins = %d", m.Bins())
	}
	// After alignment, differences must match the true slope everywhere.
	for i := 1; i < 10; i++ {
		diff := m.LogG[i] - m.LogG[i-1]
		if math.Abs(diff-1) > 1e-9 {
			t.Errorf("bin %d: step %g, want 1", i, diff)
		}
	}
}

func TestMergeRejectsDisjoint(t *testing.T) {
	a, _ := New(0, 2, 2)
	b, _ := New(5, 7, 2)
	a.LogG[0], b.LogG[0] = 1, 1
	if _, err := Merge([]*LogDOS{a, b}); err == nil {
		t.Error("disjoint windows merged")
	}
}

func TestMergeRejectsMismatchedGrids(t *testing.T) {
	a, _ := New(0, 2, 2)
	b, _ := New(0.5, 2.5, 2)
	if _, err := Merge([]*LogDOS{a, b}); err == nil {
		t.Error("misaligned grids merged")
	}
	c, _ := New(0, 3, 2) // different bin width
	if _, err := Merge([]*LogDOS{a, c}); err == nil {
		t.Error("different bin widths merged")
	}
	if _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
}

func TestMergeSingleWindow(t *testing.T) {
	a, _ := New(0, 2, 2)
	a.LogG[0] = 3
	m, err := Merge([]*LogDOS{a})
	if err != nil {
		t.Fatal(err)
	}
	if m.LogG[0] != 3 || m.Bins() != 2 {
		t.Error("single-window merge wrong")
	}
}

func TestEnumerateBinaryTotal(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	x, err := EnumerateFixedComposition(m, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if x.Total() != 70 { // C(8,4)
		t.Errorf("total states = %g, want 70", x.Total())
	}
	// Energies ascending, counts positive.
	for i := 1; i < len(x.E); i++ {
		if x.E[i] <= x.E[i-1] {
			t.Error("energies not ascending")
		}
	}
	for _, c := range x.Count {
		if c <= 0 {
			t.Error("nonpositive count")
		}
	}
}

func TestEnumerateValidation(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	if _, err := EnumerateFixedComposition(m, []int{3, 4}); err == nil {
		t.Error("wrong total accepted")
	}
	if _, err := EnumerateFixedComposition(m, []int{4, 4, 0}); err == nil {
		t.Error("wrong species count accepted")
	}
	if _, err := EnumerateFixedComposition(m, []int{-1, 9}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestEnumerateTooLargeRejected(t *testing.T) {
	m := alloy.NbMoTaW(lattice.MustNew(lattice.BCC, 3, 3, 3)) // 54 sites
	if _, err := EnumerateFixedComposition(m, []int{14, 14, 13, 13}); err == nil {
		t.Fatal("astronomically large enumeration accepted")
	}
}

func TestEnumerateThreeSpecies(t *testing.T) {
	// 8 sites, {4,2,2}: 8!/(4!2!2!) = 420 states — small enough to verify
	// the multi-species recursion end to end.
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	v := [][]float64{
		{0, -0.01, 0.01},
		{-0.01, 0, 0},
		{0.01, 0, 0},
	}
	m, err := alloy.NewEPI(lat, 3, [][][]float64{v}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := EnumerateFixedComposition(m, []int{4, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.Total() != 420 {
		t.Errorf("total = %g, want 420", x.Total())
	}
}

func TestToLogDOSAndRMS(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	x, err := EnumerateFixedComposition(m, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := x.ToLogDOS(0.025)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Exp(d.LogTotal())-70) > 1e-6 {
		t.Errorf("binned total = %g, want 70", math.Exp(d.LogTotal()))
	}
	// RMS against itself is zero.
	rms, n, err := RMSLogError(d, d)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 1e-12 || n == 0 {
		t.Errorf("self RMS = %g over %d bins", rms, n)
	}
	// RMS is gauge invariant.
	shifted := d.Clone()
	shifted.Shift(123.4)
	rms, _, err = RMSLogError(shifted, d)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 1e-9 {
		t.Errorf("gauge-shifted RMS = %g", rms)
	}
}

func TestRMSLogErrorDetectsDeviation(t *testing.T) {
	a, _ := New(0, 4, 4)
	b, _ := New(0, 4, 4)
	for i := 0; i < 4; i++ {
		a.LogG[i] = float64(i)
		b.LogG[i] = float64(i)
	}
	b.LogG[3] += 2 // one bin off by 2 (mean diff 0.5 removed → residuals ±)
	rms, n, err := RMSLogError(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || rms < 0.5 {
		t.Errorf("rms = %g over %d", rms, n)
	}
}
