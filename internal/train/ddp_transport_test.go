package train

// Cross-backend DDP parity: the training trajectory must be bit-identical
// whether the replicas talk over in-process channels or real TCP sockets,
// because the transport backends share the exact collective schedules.

import (
	"reflect"
	"testing"
)

func TestFitDDPEndpointTCPMatchesChan(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	opts := Options{Epochs: 2, BatchSize: 16, LR: 1e-3, Seed: 11}

	// Reference: the in-process backend via FitDDP.
	refModel, refStats, err := FitDDP(vcfg, ds, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenOf(refModel, refStats)

	// TCP: each rank is an independent replica that initializes its own
	// model from the shared seed and joins the world over loopback —
	// exactly what cmd/dtworker does across OS processes.
	models, stats := runTCP(t, vcfg, ds, 2, opts)
	if got := goldenOf(models[0], stats); !reflect.DeepEqual(got, want) {
		t.Errorf("rank 0 differs across backends:\n tcp  %+v\n chan %+v", got, want)
	}
	for r, m := range models {
		if weightsHash(m) != want.Weights {
			t.Errorf("tcp rank %d weights differ from the chan model", r)
		}
	}
}
