package nn

import (
	"math"
	"testing"

	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
)

// TestForwardOneHotBatchBitIdentity checks a ShareWeights replica's sparse
// forward against the base layer's sparse forward and the base layer's
// dense kernel on materialized inputs, row by row and bit by bit, and that
// the replica follows an in-place update of the base layer's weights.
func TestForwardOneHotBatchBitIdentity(t *testing.T) {
	const in, out, sites = 13, 7, 4 // in = sites*species(3) + 1
	src := rng.New(7)
	base := NewDense(in, out, src)
	rep := base.ShareWeights()

	for round := 0; round < 12; round++ {
		ones := make([]int, sites)
		for s := range ones {
			ones[s] = s*3 + src.Intn(3)
		}
		cond := 0.0
		if round%2 == 0 {
			cond = src.Float64()
		}
		if round == 6 {
			// An optimizer step writes the weights in place; the replica must
			// compute with the new values from its next call on.
			for i := range base.W.Data {
				base.W.Data[i] *= 1.5
			}
			base.B[0] += 0.25
		}
		got := rep.ForwardOneHot(ones, cond).Row(0)
		want := base.ForwardOneHot(ones, cond).Row(0)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("round %d col %d: replica %x != sparse %x", round, j, got[j], want[j])
			}
		}
		x := tensor.NewMatrix(1, in)
		for _, idx := range ones {
			x.Set(0, idx, 1)
		}
		x.Set(0, in-1, cond)
		dense := base.Forward(x).Row(0)
		repDense := rep.Forward(x).Row(0)
		for j := range dense {
			if math.Float64bits(got[j]) != math.Float64bits(dense[j]) ||
				math.Float64bits(repDense[j]) != math.Float64bits(dense[j]) {
				t.Fatalf("round %d col %d: replica %x / %x != dense %x", round, j, got[j], repDense[j], dense[j])
			}
		}
	}
}

// TestForwardOneHotBatchEmptyRow covers the all-zero input on a replica:
// no one-hot indices and a zero condition must yield exactly the shared
// bias. A replica owns no gradient accumulators, so Backward panics on it.
func TestForwardOneHotBatchEmptyRow(t *testing.T) {
	d := NewDense(5, 3, rng.New(9))
	for i := range d.B {
		d.B[i] = float64(i) + 0.5
	}
	rep := d.ShareWeights()
	got := rep.ForwardOneHot(nil, 0)
	for j, bias := range d.B {
		if got.At(0, j) != bias {
			t.Fatalf("empty row col %d: %v != bias %v", j, got.At(0, j), bias)
		}
	}
	rep.Forward(tensor.NewMatrix(1, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on a replica did not panic")
		}
	}()
	rep.Backward(tensor.NewMatrix(1, 3))
}

// TestForwardOneHotFirstRowIsCopy pins the sparse forward to the
// operation sequence it replaced: the first one-hot row copied, later
// ones added at coefficient 1, the condition row multiplied in last and
// skipped at zero, then the bias added. The weights are edge values —
// signed zeros, denormals, infinities and quiet NaNs with payloads —
// where a product by 1 that did not return its operand unchanged would
// show.
func TestForwardOneHotFirstRowIsCopy(t *testing.T) {
	const in, out = 9, 11
	edge := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308, 1e200, -1e200,
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff8_0000_0000_0abc),
	}
	src := rng.New(5)
	d := NewDense(in, out, src)
	for i := range d.W.Data {
		if src.Intn(3) == 0 {
			d.W.Data[i] = edge[src.Intn(len(edge))]
		}
	}
	for j := range d.B {
		d.B[j] = src.NormFloat64()
	}
	for _, c := range []struct {
		ones []int
		cond float64
	}{{[]int{2}, 0}, {[]int{0, 3, 5}, 0}, {[]int{1, 4}, -0.75}, {nil, 0.5}, {nil, 0}} {
		want := make([]float64, out)
		first := true
		for _, idx := range c.ones {
			if first {
				copy(want, d.W.Row(idx))
				first = false
			} else {
				tensor.Axpy(1, d.W.Row(idx), want)
			}
		}
		if c.cond != 0 {
			if first {
				for j, wv := range d.W.Row(in - 1) {
					want[j] = c.cond * wv
				}
			} else {
				tensor.Axpy(c.cond, d.W.Row(in-1), want)
			}
		}
		for j, b := range d.B {
			want[j] += b
		}
		got := d.ForwardOneHot(c.ones, c.cond).Row(0)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("ones %v cond %g col %d: %x, want %x", c.ones, c.cond, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}
