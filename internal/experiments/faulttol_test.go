package experiments

import "testing"

func TestFaultToleranceEndpoints(t *testing.T) {
	l := NewLab(Default())
	rows, err := l.FaultTolerance("resnet18", []float64{0, 1}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 platforms x 2 rates
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Replica0Pct+r.Replica1Pct+r.FP32Pct != 100 {
			t.Fatalf("%s rate %.0f: shares sum to %.1f", r.Platform, r.Rate, r.Replica0Pct+r.Replica1Pct+r.FP32Pct)
		}
		switch r.Rate {
		case 0:
			// Pristine: the two builds agree on every image, so replica 0
			// serves everything, and the ledger stays empty.
			if r.Replica0Pct != 100 || r.Faults != 0 || r.Failovers != 0 || r.Quarantines != 0 {
				t.Fatalf("%s rate 0 not pristine: %+v", r.Platform, r)
			}
		case 1:
			// Total faults: every answer comes from the FP32 floor, so the
			// served error equals the un-optimized error.
			if r.FP32Pct != 100 {
				t.Fatalf("%s rate 1 served %+v, want all fp32", r.Platform, r)
			}
			if r.TRTErr != r.UnoptErr {
				t.Fatalf("%s rate 1: served err %.2f != unopt err %.2f", r.Platform, r.TRTErr, r.UnoptErr)
			}
			if r.Faults == 0 {
				t.Fatalf("%s rate 1 counted no faults", r.Platform)
			}
		}
	}
}

func TestThrottleSweepStretchesLatency(t *testing.T) {
	l := NewLab(Default())
	rows, err := l.ThrottleSweep("resnet18", []float64{0.5}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.P50Ms <= r.NominalMs {
			t.Fatalf("%s: throttled p50 %.2fms not above nominal %.2fms", r.Platform, r.P50Ms, r.NominalMs)
		}
		if r.Drops == 0 {
			t.Fatalf("%s: no clock drops injected", r.Platform)
		}
	}
}

func TestFaultToleranceDeterministic(t *testing.T) {
	a, errA := NewLab(Default()).FaultTolerance("resnet18", []float64{0.2}, 10)
	b, errB := NewLab(Default()).FaultTolerance("resnet18", []float64{0.2}, 10)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
