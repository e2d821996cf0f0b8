package detect

import (
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

func TestDecodeRegionsMergesComponents(t *testing.T) {
	cov := tensor.New(1, 1, 8, 8)
	// one 2x3 blob and one isolated cell
	for y := 1; y <= 2; y++ {
		for x := 2; x <= 4; x++ {
			cov.Set(0, 0, y, x, 0.95)
		}
	}
	cov.Set(0, 0, 6, 6, 0.8)
	dets := DecodeRegions(cov, 2, 0.5)
	if len(dets) != 2 {
		t.Fatalf("%d regions, want 2", len(dets))
	}
	var blob Detection
	for _, d := range dets {
		if d.Rect.W > 2 {
			blob = d
		}
	}
	if blob.Rect.X != 4 || blob.Rect.Y != 2 || blob.Rect.W != 6 || blob.Rect.H != 4 {
		t.Fatalf("blob rect %+v", blob.Rect)
	}
	if blob.Confidence < 0.9 {
		t.Fatalf("blob confidence %v", blob.Confidence)
	}
}

func TestNMSSuppressesOverlaps(t *testing.T) {
	dets := []Detection{
		{Rect: metrics.Rect{X: 0, Y: 0, W: 10, H: 10}, Confidence: 0.9},
		{Rect: metrics.Rect{X: 1, Y: 1, W: 10, H: 10}, Confidence: 0.8}, // overlaps first
		{Rect: metrics.Rect{X: 50, Y: 50, W: 10, H: 10}, Confidence: 0.7},
	}
	kept := NMS(dets, 0.5)
	if len(kept) != 2 {
		t.Fatalf("%d kept, want 2", len(kept))
	}
	if kept[0].Confidence != 0.9 {
		t.Fatal("NMS must keep the highest-confidence box")
	}
}

func TestNMSKeepsAllDisjoint(t *testing.T) {
	var dets []Detection
	for i := 0; i < 5; i++ {
		dets = append(dets, Detection{Rect: metrics.Rect{X: i * 20, Y: 0, W: 10, H: 10}, Confidence: float64(i)})
	}
	if kept := NMS(dets, 0.5); len(kept) != 5 {
		t.Fatalf("%d kept, want 5", len(kept))
	}
}

func TestMatchCounts(t *testing.T) {
	truth := []metrics.Rect{{X: 0, Y: 0, W: 10, H: 10}, {X: 50, Y: 50, W: 10, H: 10}}
	dets := []Detection{
		{Rect: metrics.Rect{X: 0, Y: 0, W: 10, H: 10}, Confidence: 1},
		{Rect: metrics.Rect{X: 100, Y: 100, W: 10, H: 10}, Confidence: 1},
	}
	tp, fp, fn := Match(dets, truth, 0.5)
	if tp != 1 || fp != 1 || fn != 1 {
		t.Fatalf("tp/fp/fn = %d/%d/%d", tp, fp, fn)
	}
	p, r := PrecisionRecall(tp, fp, fn)
	if p != 50 || r != 50 {
		t.Fatalf("p/r = %v/%v", p, r)
	}
}

func TestSameDetections(t *testing.T) {
	a := []Detection{{Rect: metrics.Rect{X: 0, Y: 0, W: 10, H: 10}}}
	b := []Detection{{Rect: metrics.Rect{X: 0, Y: 0, W: 10, H: 10}}}
	if !SameDetections(a, b) {
		t.Fatal("identical sets reported different")
	}
	c := []Detection{{Rect: metrics.Rect{X: 30, Y: 0, W: 10, H: 10}}}
	if SameDetections(a, c) {
		t.Fatal("different sets reported same")
	}
	if SameDetections(a, nil) {
		t.Fatal("count mismatch reported same")
	}
}

// End-to-end: the detection proxy through a built engine finds the
// synthetic scenes' vehicles with good precision/recall at IoU 0.5.
func TestDetectorProxyEndToEnd(t *testing.T) {
	cfg := dataset.DefaultScenes()
	g, err := models.BuildDetectorProxy("detector-proxy", cfg.HW)
	if err != nil {
		t.Fatal(err)
	}
	bc := core.DefaultConfig(gpusim.XavierNX(), 1)
	bc.PruneFrac = 0 // the matched filter is uniform; pruning would gut it
	e, err := core.Build(g, bc)
	if err != nil {
		t.Fatal(err)
	}
	var tp, fp, fn int
	for i := 0; i < 20; i++ {
		scene := dataset.Generate(cfg, i)
		outs, err := e.Infer(scene.Image)
		if err != nil {
			t.Fatal(err)
		}
		dets := NMS(DecodeRegions(outs[0], models.DetectorStride, 0.5), 0.4)
		var truth []metrics.Rect
		for _, b := range scene.Truth {
			truth = append(truth, metrics.Rect{X: b.X, Y: b.Y, W: b.W, H: b.H})
		}
		a, b, c := Match(dets, truth, 0.5)
		tp, fp, fn = tp+a, fp+b, fn+c
	}
	p, r := PrecisionRecall(tp, fp, fn)
	if p < 60 || r < 60 {
		t.Fatalf("detector proxy precision %.0f%% recall %.0f%% too low (tp=%d fp=%d fn=%d)", p, r, tp, fp, fn)
	}
}

// Class assignment by intensity recovers the scene's vehicle classes.
func TestClassifyBoxIntensity(t *testing.T) {
	cfg := dataset.DefaultScenes()
	scene := dataset.Generate(cfg, 3)
	correct, total := 0, 0
	for _, b := range scene.Truth {
		got := models.ClassifyBoxIntensity(scene.Image, b.X, b.Y, b.W, b.H)
		total++
		if got == b.Class {
			correct++
		}
	}
	if correct < total-1 {
		t.Fatalf("classified %d/%d boxes", correct, total)
	}
}
