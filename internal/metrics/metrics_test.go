package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
)

func TestTop1Error(t *testing.T) {
	if e := Top1Error([]int{1, 2, 3, 4}, []int{1, 2, 0, 0}); e != 50 {
		t.Fatalf("error %v want 50", e)
	}
	if e := Top1Error(nil, nil); e != 0 {
		t.Fatalf("empty error %v", e)
	}
}

func TestTop1ErrorPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Top1Error([]int{1}, []int{1, 2})
}

func TestMismatches(t *testing.T) {
	if m := Mismatches([]int{1, 2, 3}, []int{1, 0, 3}); m != 1 {
		t.Fatalf("mismatches %d", m)
	}
}

func TestIoUIdentical(t *testing.T) {
	r := Rect{10, 10, 20, 20}
	if IoU(r, r) != 1 {
		t.Fatal("identical boxes should have IoU 1")
	}
}

func TestIoUDisjoint(t *testing.T) {
	if IoU(Rect{0, 0, 5, 5}, Rect{10, 10, 5, 5}) != 0 {
		t.Fatal("disjoint boxes should have IoU 0")
	}
}

func TestIoUHalfOverlap(t *testing.T) {
	// Two 10x10 boxes overlapping in a 5x10 strip: IoU = 50/150.
	got := IoU(Rect{0, 0, 10, 10}, Rect{5, 0, 10, 10})
	if math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("IoU %v want 1/3", got)
	}
}

// Property: IoU is symmetric and within [0, 1].
func TestIoUProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := fixrand.New(seed)
		a := Rect{src.Intn(50), src.Intn(50), src.Intn(30) + 1, src.Intn(30) + 1}
		b := Rect{src.Intn(50), src.Intn(50), src.Intn(30) + 1, src.Intn(30) + 1}
		ab, ba := IoU(a, b), IoU(b, a)
		return ab == ba && ab >= 0 && ab <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencies(t *testing.T) {
	s := Latencies([]float64{0.010, 0.012, 0.011})
	if math.Abs(s.MeanMS-11) > 1e-9 {
		t.Fatalf("mean %v", s.MeanMS)
	}
	if s.StdMS <= 0 || s.N != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.MinMS != 10 || s.MaxMS != 12 {
		t.Fatalf("min/max %v/%v", s.MinMS, s.MaxMS)
	}
	if Latencies(nil).N != 0 {
		t.Fatal("empty latencies")
	}
}

func TestLatencyString(t *testing.T) {
	s := Latencies([]float64{0.0126, 0.0126})
	if s.String() != "12.60 (0.00)" {
		t.Fatalf("string %q", s.String())
	}
}

func TestFPS(t *testing.T) {
	if FPS(0.02) != 50 {
		t.Fatal("fps wrong")
	}
	if FPS(0) != 0 {
		t.Fatal("fps of zero latency")
	}
}

func TestAnomalyCases(t *testing.T) {
	mk := func(a, b, c, d float64) LatencyMatrix {
		return LatencyMatrix{
			CNXRNX:   LatencyStats{MeanMS: a},
			CNXRAGX:  LatencyStats{MeanMS: b},
			CAGXRAGX: LatencyStats{MeanMS: c},
			CAGXRNX:  LatencyStats{MeanMS: d},
		}
	}
	// AGX faster everywhere: no anomalies.
	if s := mk(10, 9, 8, 9).AnomalyString(); s != "none" {
		t.Fatalf("expected none, got %q", s)
	}
	// Case 1: platform-specific engines, AGX slower.
	m := mk(10, 9, 11, 12)
	cases := m.Anomalies()
	if len(cases) != 1 || cases[0] != Case1 {
		t.Fatalf("cases %v", cases)
	}
	// All three.
	m = mk(10, 11, 12, 11)
	if got := m.AnomalyString(); got != "case 1, case 2, case 3" {
		t.Fatalf("got %q", got)
	}
}
