package infer

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

func testModel(tb testing.TB, seed uint64) *vae.Model {
	tb.Helper()
	m, err := vae.New(vae.Config{Sites: 8, Species: 3, Latent: 4, Hidden: 16, BetaKL: 1}, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func randomCfg(n, k int, src *rng.Source) lattice.Config {
	cfg := make(lattice.Config, n)
	for i := range cfg {
		cfg[i] = lattice.Species(src.Intn(k))
	}
	return cfg
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s [%d]: %x != %x", what, j, got[j], want[j])
		}
	}
}

// TestPassThroughOutsideBracket: every kind of client call — encode,
// decode and the fused walk step, with caller buffers or nil ones — matches
// a reference model bit for bit, and counts as one batch of one.
func TestPassThroughOutsideBracket(t *testing.T) {
	eng := NewEngine(testModel(t, 11))
	ref := testModel(t, 11)
	c := eng.NewClient()
	src := rng.New(12)
	vc := c.Config()
	l := vc.Latent

	for i := 0; i < 5; i++ {
		cfg := randomCfg(vc.Sites, vc.Species, src)
		cond := src.Float64()
		mu, lv := c.EncodeInto(cfg, cond, nil, nil)
		wantMu, wantLv := ref.EncodeInto(cfg, cond, nil, nil)
		sameBits(t, "encode mu", mu, wantMu)
		sameBits(t, "encode logvar", lv, wantLv)

		probs := c.DecodeProbsInto(mu, cond, nil)
		want := ref.DecodeProbsInto(mu, cond, nil)
		for site := range want {
			sameBits(t, "decode", probs[site], want[site])
		}

		eps := make([]float64, l)
		for j := range eps {
			eps[j] = src.NormFloat64()
		}
		fMu, fLv, fZ := make([]float64, l), make([]float64, l), make([]float64, l)
		fProbs := vae.NewProbs(vc.Sites, vc.Species)
		c.EncodeSampleDecode(cfg, cond, eps, fMu, fLv, fZ, fProbs)
		wantZ := make([]float64, l)
		vae.SampleLatent(wantZ, wantMu, wantLv, eps)
		want = ref.DecodeProbsInto(wantZ, cond, nil)
		sameBits(t, "fused z", fZ, wantZ)
		for site := range want {
			sameBits(t, "fused decode", fProbs[site], want[site])
		}
	}
	want := Stats{Batches: 15, Requests: 15, Encodes: 10, Decodes: 10, Fused: 5, MaxBatch: 1}
	if st := eng.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestQuorumFlushCoalesces: W clients on W goroutines, each issuing mixed
// encode and decode traffic at the same time, produce exactly the engine
// model's serial results — no client's scratch or result leaks into
// another's.
func TestQuorumFlushCoalesces(t *testing.T) {
	const w, reqs = 6, 20
	eng := NewEngine(testModel(t, 21))
	vc := eng.Model().Config()
	src := rng.New(22)

	cfgs := make([][]lattice.Config, w)
	conds := make([][]float64, w)
	for i := range cfgs {
		for r := 0; r < reqs; r++ {
			cfgs[i] = append(cfgs[i], randomCfg(vc.Sites, vc.Species, src))
			conds[i] = append(conds[i], src.Float64())
		}
	}
	mus := make([][][]float64, w)
	probs := make([][][][]float64, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		c := eng.NewClient()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				mu, _ := c.EncodeInto(cfgs[i][r], conds[i][r], nil, nil)
				mus[i] = append(mus[i], mu)
				probs[i] = append(probs[i], c.DecodeProbsInto(mu, conds[i][r], nil))
			}
		}(i)
	}
	wg.Wait()
	serial := eng.Model()
	for i := 0; i < w; i++ {
		for r := 0; r < reqs; r++ {
			wantMu, _ := serial.EncodeInto(cfgs[i][r], conds[i][r], nil, nil)
			sameBits(t, "concurrent encode", mus[i][r], wantMu)
			want := serial.DecodeProbsInto(wantMu, conds[i][r], nil)
			for site := range want {
				sameBits(t, "concurrent decode", probs[i][r][site], want[site])
			}
		}
	}
	if st := eng.Stats(); st.Requests != 2*w*reqs || st.Batches != st.Requests {
		t.Fatalf("stats = %+v, want %d requests, each its own batch", st, 2*w*reqs)
	}
}

// TestEndBatchReleasesQuorum: no client ever waits for another. One
// client stops mid-run with its goroutine parked; the others still finish
// all their calls.
func TestEndBatchReleasesQuorum(t *testing.T) {
	eng := NewEngine(testModel(t, 31))
	vc := eng.Model().Config()
	src := rng.New(32)
	cfg := randomCfg(vc.Sites, vc.Species, src)

	stalled := eng.NewClient()
	release := make(chan struct{})
	go func() {
		stalled.EncodeInto(cfg, 0.5, nil, nil)
		<-release // parked for the rest of the test
	}()
	defer close(release)

	done := make(chan struct{})
	go func() {
		defer close(done)
		c := eng.NewClient()
		for i := 0; i < 50; i++ {
			c.EncodeInto(cfg, 0.5, nil, nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a client waited on a stalled sibling")
	}
}

// TestRepeatedRoundsQuorumAccounting drives many rounds of mixed encode,
// decode and fused traffic while another goroutine polls Stats. Every poll
// must be consistent (Batches == Requests, phase counts summing to the
// total) and no count may fall; afterwards the counts are exact.
func TestRepeatedRoundsQuorumAccounting(t *testing.T) {
	const w, reqs, rounds = 4, 6, 10
	eng := NewEngine(testModel(t, 41))
	vc := eng.Model().Config()
	clients := make([]*Client, w)
	for i := range clients {
		clients[i] = eng.NewClient()
	}

	stop := make(chan struct{})
	pollErr := make(chan string, 1)
	go func() {
		var prev Stats
		for {
			st := eng.Stats()
			switch {
			case st.Batches != st.Requests || st.Encodes+st.Decodes-st.Fused != st.Requests:
				pollErr <- fmt.Sprintf("inconsistent snapshot %+v", st)
				return
			case st.Requests < prev.Requests || st.Fused < prev.Fused:
				pollErr <- fmt.Sprintf("counts fell: %+v after %+v", st, prev)
				return
			}
			prev = st
			select {
			case <-stop:
				pollErr <- ""
				return
			default:
			}
		}
	}()

	l := vc.Latent
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *Client) {
				defer wg.Done()
				src := rng.New(uint64(1000*round + i))
				mu, lv, z, eps := make([]float64, l), make([]float64, l), make([]float64, l), make([]float64, l)
				probs := vae.NewProbs(vc.Sites, vc.Species)
				for r := 0; r < reqs; r++ {
					cfg := randomCfg(vc.Sites, vc.Species, src)
					switch r % 3 {
					case 0:
						c.EncodeInto(cfg, src.Float64(), mu, lv)
					case 1:
						for j := range z {
							z[j] = src.NormFloat64()
						}
						c.DecodeProbsInto(z, src.Float64(), probs)
					default:
						for j := range eps {
							eps[j] = src.NormFloat64()
						}
						c.EncodeSampleDecode(cfg, src.Float64(), eps, mu, lv, z, probs)
					}
				}
			}(i, c)
		}
		wg.Wait()
	}
	close(stop)
	if msg := <-pollErr; msg != "" {
		t.Fatal(msg)
	}
	per := int64(w * rounds * reqs / 3)
	want := Stats{Batches: 3 * per, Requests: 3 * per, Encodes: 2 * per, Decodes: 2 * per, Fused: per, MaxBatch: 1}
	if st := eng.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestFlushPanicSettlesQuorum: a malformed request (wrong latent size)
// panics on its own client's goroutine only. The other clients, running
// at the same time, still get their exact results, and the failed call is
// not counted.
func TestFlushPanicSettlesQuorum(t *testing.T) {
	eng := NewEngine(testModel(t, 51))
	vc := eng.Model().Config()
	src := rng.New(52)
	const goods, reqs = 3, 30
	cfgs := make([]lattice.Config, reqs)
	for i := range cfgs {
		cfgs[i] = randomCfg(vc.Sites, vc.Species, src)
	}

	panicked := make(chan any, 1)
	bad := eng.NewClient()
	go func() {
		defer func() { panicked <- recover() }()
		bad.DecodeProbsInto(make([]float64, vc.Latent+3), 0.2, nil)
	}()
	mus := make([][][]float64, goods)
	var wg sync.WaitGroup
	for g := 0; g < goods; g++ {
		c := eng.NewClient()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, cfg := range cfgs {
				mu, _ := c.EncodeInto(cfg, 0.1, nil, nil)
				mus[g] = append(mus[g], mu)
			}
		}(g)
	}
	select {
	case r := <-panicked:
		if r == nil {
			t.Fatal("malformed request did not panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panicking client never returned")
	}
	wg.Wait()
	for g := range mus {
		for i, cfg := range cfgs {
			want, _ := eng.Model().EncodeInto(cfg, 0.1, nil, nil)
			sameBits(t, "encode next to a panicking client", mus[g][i], want)
		}
	}
	if st := eng.Stats(); st.Requests != goods*reqs || st.Decodes != 0 {
		t.Fatalf("stats = %+v, want %d encodes and the failed decode uncounted", st, goods*reqs)
	}
}
