package workload

import (
	"math"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

func testModel(t testing.TB) *alloy.Model {
	t.Helper()
	return alloy.NbMoTaW(lattice.MustNew(lattice.BCC, 2, 2, 2)) // 16 sites
}

func TestGenerateShapes(t *testing.T) {
	m := testModel(t)
	ds, err := Generate(m, GenOptions{
		Temps:          []float64{500, 2000},
		SamplesPerTemp: 10,
		EquilSweeps:    20,
		GapSweeps:      2,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 20 {
		t.Fatalf("dataset size %d", ds.Len())
	}
	if len(ds.Conds) != 20 || len(ds.Energies) != 20 {
		t.Fatal("parallel arrays out of sync")
	}
}

func TestGenerateCompositionFixed(t *testing.T) {
	m := testModel(t)
	ds, err := Generate(m, GenOptions{
		Temps:          []float64{800},
		SamplesPerTemp: 15,
		EquilSweeps:    10,
		GapSweeps:      1,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range ds.Configs {
		counts := cfg.Counts(4)
		for _, c := range counts {
			if c != 4 {
				t.Fatalf("sample %d composition %v", i, counts)
			}
		}
	}
}

func TestGenerateCondLabels(t *testing.T) {
	m := testModel(t)
	temps := []float64{400, 1600}
	ds, err := Generate(m, GenOptions{Temps: temps, SamplesPerTemp: 5, EquilSweeps: 5, GapSweeps: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]bool{mc.CondForT(400): true, mc.CondForT(1600): true}
	for _, c := range ds.Conds {
		if !want[c] {
			t.Fatalf("unexpected condition %g", c)
		}
	}
}

// TestGenerateEnergyOrdering: low-temperature chains must produce lower
// mean energies than high-temperature chains.
func TestGenerateEnergyOrdering(t *testing.T) {
	m := testModel(t)
	ds, err := Generate(m, GenOptions{
		Temps:          []float64{150, 6000},
		SamplesPerTemp: 40,
		EquilSweeps:    200,
		GapSweeps:      5,
		Seed:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lowSum, highSum float64
	var lowN, highN int
	lowCond := mc.CondForT(150)
	for i, c := range ds.Conds {
		if c == lowCond {
			lowSum += ds.Energies[i]
			lowN++
		} else {
			highSum += ds.Energies[i]
			highN++
		}
	}
	if lowN == 0 || highN == 0 {
		t.Fatal("missing temperature groups")
	}
	if lowSum/float64(lowN) >= highSum/float64(highN) {
		t.Errorf("low-T mean energy %g not below high-T %g", lowSum/float64(lowN), highSum/float64(highN))
	}
}

func TestGenerateValidation(t *testing.T) {
	m := testModel(t)
	if _, err := Generate(m, GenOptions{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := Generate(m, GenOptions{Temps: []float64{300}, SamplesPerTemp: 0}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := Generate(m, GenOptions{Temps: []float64{300}, SamplesPerTemp: 1, Quota: []int{1, 1, 1, 1}}); err == nil {
		t.Error("bad quota accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := testModel(t)
	opts := GenOptions{Temps: []float64{700}, SamplesPerTemp: 8, EquilSweeps: 10, GapSweeps: 1, Seed: 5}
	a, err := Generate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Energies {
		if a.Energies[i] != b.Energies[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
}

func TestDatasetShuffleSplitShard(t *testing.T) {
	ds := &Dataset{}
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	for i := 0; i < 10; i++ {
		cfg := lattice.EquiatomicConfig(lat, 2, rng.New(uint64(i)))
		ds.Append(cfg, float64(i), float64(i)*2)
	}
	train, val := ds.Split(0.8)
	if train.Len() != 8 || val.Len() != 2 {
		t.Fatalf("split %d/%d", train.Len(), val.Len())
	}
	// Shards cover the training set disjointly.
	total := 0
	for i := 0; i < 3; i++ {
		total += train.Shard(i, 3).Len()
	}
	if total != train.Len() {
		t.Errorf("shards cover %d of %d", total, train.Len())
	}
	// Shuffle keeps arrays aligned (cond i ↔ energy 2·cond).
	ds.Shuffle(rng.New(9))
	for i := range ds.Conds {
		if ds.Energies[i] != 2*ds.Conds[i] {
			t.Fatal("shuffle desynced parallel arrays")
		}
	}
}

func TestSplitEdgeCases(t *testing.T) {
	ds := &Dataset{}
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	ds.Append(lattice.EquiatomicConfig(lat, 2, rng.New(1)), 0, 0)
	train, val := ds.Split(0.0)
	if train.Len() != 1 || val.Len() != 0 {
		t.Error("minimum one training sample not enforced")
	}
	train, val = ds.Split(2.0)
	if train.Len() != 1 || val.Len() != 0 {
		t.Error("overlarge fraction not clamped")
	}
}

func TestTempLadder(t *testing.T) {
	ts := TempLadder(100, 1600, 5)
	if len(ts) != 5 {
		t.Fatalf("%d temps", len(ts))
	}
	if math.Abs(ts[0]-100) > 1e-9 || math.Abs(ts[4]-1600) > 1e-9 {
		t.Errorf("endpoints %g, %g", ts[0], ts[4])
	}
	// Geometric: constant ratio 2.
	for i := 1; i < 5; i++ {
		if math.Abs(ts[i]/ts[i-1]-2) > 1e-9 {
			t.Errorf("ratio at %d: %g", i, ts[i]/ts[i-1])
		}
	}
	if one := TempLadder(100, 1600, 1); len(one) != 1 || one[0] != 100 {
		t.Error("n=1 ladder wrong")
	}
}
