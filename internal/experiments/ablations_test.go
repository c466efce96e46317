package experiments

import "testing"

func TestAblationScheduledMixture(t *testing.T) {
	sys := trained(t)
	res, err := AblationScheduledMixture(sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Sweeps <= 0 {
			t.Errorf("%s: no sweeps", row.Policy)
		}
		if row.Bins <= 0 {
			t.Errorf("%s: no coverage", row.Policy)
		}
	}
	if res.Speedup <= 0 {
		t.Error("no speedup computed")
	}
}
