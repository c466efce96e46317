package dos

import (
	"bytes"
	"math"
	"testing"
)

func TestDOSSaveLoadRoundTrip(t *testing.T) {
	d, err := New(-2, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.LogG[0] = 1.5
	d.LogG[4] = 9999.25
	d.LogG[9] = -3

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.EMin != d.EMin || loaded.BinWidth != d.BinWidth || loaded.Bins() != d.Bins() {
		t.Fatalf("geometry changed: %+v", loaded)
	}
	for i := range d.LogG {
		if d.Visited(i) != loaded.Visited(i) {
			t.Fatalf("bin %d visitedness changed", i)
		}
		if d.Visited(i) && d.LogG[i] != loaded.LogG[i] {
			t.Fatalf("bin %d value changed: %g vs %g", i, d.LogG[i], loaded.LogG[i])
		}
		if !d.Visited(i) && !math.IsInf(loaded.LogG[i], -1) {
			t.Fatalf("unvisited bin %d became finite", i)
		}
	}
}

func TestDOSLoadRejectsGarbage(t *testing.T) {
	files := nonFiniteDOSFiles(t)
	files["garbage"] = []byte{1, 2, 3}
	for name, data := range files {
		if d, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted (EMin %g, BinWidth %g, ln g %v)", name, d.EMin, d.BinWidth, d.LogG)
		}
	}
}

// saved returns d's Save encoding, which holds EMin, BinWidth and every
// visited ln g bit for bit.
func saved(tb testing.TB, d *LogDOS) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// nonFiniteDOSFiles are Save outputs that Load must refuse: each would
// make thermodynamic averages NaN or Inf downstream.
func nonFiniteDOSFiles(tb testing.TB) map[string][]byte {
	files := make(map[string][]byte)
	for name, spoil := range map[string]func(d *LogDOS){
		"nan ln g":      func(d *LogDOS) { d.LogG[2] = math.NaN() },
		"+inf ln g":     func(d *LogDOS) { d.LogG[2] = math.Inf(1) },
		"+inf width":    func(d *LogDOS) { d.BinWidth = math.Inf(1) },
		"emax overflow": func(d *LogDOS) { d.EMin, d.BinWidth = 1e308, 1e308 },
	} {
		d := &LogDOS{EMin: -2, BinWidth: 0.5, LogG: []float64{math.Inf(-1), 1, 2, math.Inf(-1)}}
		spoil(d)
		files[name] = saved(tb, d)
	}
	return files
}

// FuzzLoad: Load either refuses its input, or returns a finite grid with
// finite visited ln g that survives Save and Load bit for bit.
//
//	go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 30s ./internal/dos/
func FuzzLoad(f *testing.F) {
	f.Add(saved(f, &LogDOS{EMin: -2, BinWidth: 0.5, LogG: []float64{1.5, math.Inf(-1), 9999.25, -3}}))
	for _, data := range nonFiniteDOSFiles(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if !finite(d.EMin) || !finite(d.BinWidth) || !finite(d.EMax()) {
			t.Fatalf("non-finite grid: EMin %g BinWidth %g EMax %g", d.EMin, d.BinWidth, d.EMax())
		}
		for i, lg := range d.LogG {
			if d.Visited(i) && !finite(lg) {
				t.Fatalf("visited bin %d holds ln g %g", i, lg)
			}
		}
		// d's unvisited bins are -Inf, so equal encodings mean equal bits.
		first := saved(t, d)
		again, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reloading a saved DOS: %v", err)
		}
		if !bytes.Equal(saved(t, again), first) {
			t.Fatalf("Load(Save(d)) differs from d:\n%+v\n%+v", d, again)
		}
	})
}
