package deepthermo

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// dlSystem builds a small system with a fixed-seed (untrained) proposal
// model; the DL proposal only needs weights, and untrained weights
// exercise the full accept/reject machinery.
func dlSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{Cells: 2, Seed: 3, Latent: 4, Hidden: 24})
	if err != nil {
		t.Fatal(err)
	}
	model, err := vae.New(vae.Config{
		Sites:   sys.Lat.NumSites(),
		Species: sys.Ham.NumSpecies(),
		Latent:  4,
		Hidden:  24,
		BetaKL:  1,
	}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	sys.Model = model
	return sys
}

// TestSampleDOSDLPinned pins the facade's DL run: a 2×4-walker REWL run
// with the DL mixture over dlSystem's fixed-seed model. The checksum is
// FNV-64a over the DOS.Save bytes. The values were recorded when walkers
// still got private weight clones, and the WalkerModel replicas must
// reproduce them. Any change to how a walker gets its model — the weights
// it reads or the draws its stream gives up for them — moves a bit
// somewhere in the DOS, the rounds or the sweeps. The deprecated
// BatchInference must not move them either.
func TestSampleDOSDLPinned(t *testing.T) {
	const want = "dos_checksum=2018a728a4d70fad rounds=359 sweeps=134800 converged=true"
	for _, batch := range []bool{false, true} {
		cfg := DOSConfig{Windows: 2, Walkers: 4, Bins: 16, LnFFinal: 1e-2, DLWeight: 0.3, BatchInference: batch}
		res, err := dlSystem(t).SampleDOS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.DOS.Save(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		got := fmt.Sprintf("dos_checksum=%016x rounds=%d sweeps=%d converged=%v", h.Sum64(), res.Rounds, res.Sweeps, res.Converged)
		if got != want {
			t.Errorf("facade DL run, BatchInference %v:\n got %s\nwant %s", batch, got, want)
		}
	}
}

// TestNewSamplerDLPinned pins a canonical DL walker from NewSampler: its
// energy after each of 12 sweeps at 1000 K, as hex floats, and its
// accepted/proposed counts.
func TestNewSamplerDLPinned(t *testing.T) {
	s := dlSystem(t).NewSampler(SamplerConfig{Seed: 9, DLWeight: 0.3})
	var es []string
	for i := 0; i < 12; i++ {
		s.Sweep(1000)
		es = append(es, strconv.FormatFloat(s.E, 'x', -1, 64))
	}
	got := fmt.Sprintf("E=%s accepted=%d proposed=%d", strings.Join(es, ","), s.Accepted, s.Proposed)
	const want = "E=-0x1.810624dd2f16p-02,-0x1.ed916872b01dp-02,-0x1.1cac083126e7p-01,-0x1.e76c8b43957ep-02," +
		"-0x1.76c8b439580cp-02,-0x1.6872b020c498p-02,-0x1.4189374bc6a68p-01,-0x1.4fdf3b645a1bp-01," +
		"-0x1.47ae147ae146p-01,-0x1.52f1a9fbe76bp-01,-0x1.5c28f5c28f5bp-01,-0x1.604189374bc5p-01 accepted=87 proposed=192"
	if got != want {
		t.Fatalf("NewSampler DL trajectory:\n got %s\nwant %s", got, want)
	}
}
