package core

import (
	"bytes"
	"math"
	"testing"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

func calibImages(n int) []*tensor.Tensor {
	set := dataset.Benign(dataset.BenignConfig{Seed: "calib", Classes: 10, PerClass: (n + 9) / 10, NoiseSigma: 3.8})
	out := make([]*tensor.Tensor, 0, n)
	for i := 0; i < n && i < len(set); i++ {
		out = append(out, set[i].Image)
	}
	return out
}

func int8Config(buildID int, cal Calibrator) BuildConfig {
	cfg := DefaultConfig(gpusim.XavierNX(), buildID)
	cfg.Precision = tensor.INT8
	cfg.Calibrator = cal
	return cfg
}

func TestInt8BuildRequiresCalibrator(t *testing.T) {
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gpusim.XavierNX(), 1)
	cfg.Precision = tensor.INT8
	if _, err := Build(g, cfg); err == nil {
		t.Fatal("INT8 numeric build without calibrator accepted")
	}
}

func TestInt8TimingOnlyNeedsNoCalibrator(t *testing.T) {
	g := models.MustBuild("resnet18") // no weights materialized
	cfg := DefaultConfig(gpusim.XavierNX(), 1)
	cfg.Precision = tensor.INT8
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Numeric {
		t.Fatal("full-scale graph should be timing-only")
	}
}

// TestMaxAbsCalibratorRanges: the 100th percentile is the max-abs range.
func TestMaxAbsCalibratorRanges(t *testing.T) {
	g, err := models.BuildProxy("vgg16", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := PercentileCalibrator{Images: calibImages(4), Pct: 100}.Ranges(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) < len(g.Layers)-1 {
		t.Fatalf("only %d ranges for %d layers", len(ranges), len(g.Layers))
	}
	for name, r := range ranges {
		if r <= 0 || math.IsNaN(float64(r)) {
			t.Fatalf("layer %s range %v", name, r)
		}
	}
}

func TestPercentileBelowMaxAbs(t *testing.T) {
	g, err := models.BuildProxy("vgg16", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	images := calibImages(4)
	maxAbs, err := PercentileCalibrator{Images: images, Pct: 100}.Ranges(g)
	if err != nil {
		t.Fatal(err)
	}
	pct, err := PercentileCalibrator{Images: images, Pct: 99}.Ranges(g)
	if err != nil {
		t.Fatal(err)
	}
	tighter := 0
	for name, m := range maxAbs {
		if pct[name] <= m {
			tighter++
		}
		if pct[name] > m+1e-5 {
			t.Fatalf("layer %s: percentile range %v exceeds maxabs %v", name, pct[name], m)
		}
	}
	if tighter == 0 {
		t.Fatal("percentile calibration never tightened a range")
	}
}

func TestCalibrationNeedsImages(t *testing.T) {
	g, _ := models.BuildProxy("vgg16", models.DefaultProxyOptions())
	if _, err := (PercentileCalibrator{Pct: 100}).Ranges(g); err == nil {
		t.Fatal("empty calibration set accepted")
	}
}

func TestInt8EngineAccuracyCloseToFP16(t *testing.T) {
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fp16, err := Build(g, DefaultConfig(gpusim.XavierNX(), 1))
	if err != nil {
		t.Fatal(err)
	}
	int8, err := Build(g, int8Config(1, PercentileCalibrator{Images: calibImages(8), Pct: 99.9}))
	if err != nil {
		t.Fatal(err)
	}
	if int8.Int8Ranges == nil {
		t.Fatal("int8 engine missing ranges")
	}
	set := dataset.Benign(dataset.BenignConfig{Seed: "imagenet-proxy", Classes: 100, PerClass: 3, NoiseSigma: 3.8})
	agree, correct16, correct8 := 0, 0, 0
	for _, s := range set {
		o16, err := fp16.Infer(s.Image)
		if err != nil {
			t.Fatal(err)
		}
		o8, err := int8.Infer(s.Image)
		if err != nil {
			t.Fatal(err)
		}
		if o16[0].Argmax() == o8[0].Argmax() {
			agree++
		}
		if o16[0].Argmax() == s.Label {
			correct16++
		}
		if o8[0].Argmax() == s.Label {
			correct8++
		}
	}
	if float64(agree)/float64(len(set)) < 0.90 {
		t.Fatalf("INT8 agrees with FP16 on only %d/%d predictions", agree, len(set))
	}
	if float64(correct8) < 0.85*float64(correct16) {
		t.Fatalf("INT8 accuracy collapsed: %d vs FP16 %d of %d", correct8, correct16, len(set))
	}
}

func TestInt8RangesSurviveSerialization(t *testing.T) {
	g, _ := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	e, err := Build(g, int8Config(2, PercentileCalibrator{Images: calibImages(2), Pct: 100}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Int8Ranges) != len(e.Int8Ranges) {
		t.Fatal("ranges lost in serialization")
	}
	img := calibImages(1)[0]
	o1, err := e.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := e2.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1[0].Data {
		if o1[0].Data[i] != o2[0].Data[i] {
			t.Fatal("loaded INT8 engine computes differently")
		}
	}
}

func TestInt8KernelsFasterThanFP16(t *testing.T) {
	d := kernels.ConvDims{Batch: 1, InC: 256, H: 32, W: 32, OutC: 256, OutH: 32, OutW: 32, Kernel: 3, Stride: 1}
	dev := gpusim.NewDevice(gpusim.XavierNX(), 599)
	v16 := kernels.Variant{Family: kernels.FamHMMAConv, TileM: 128, TileN: 64, TileK: 64, Precision: tensor.FP16}
	v8 := v16
	v8.Precision = tensor.INT8
	t16 := kernels.PlanConv(v16, d).TimeSec(dev)
	t8 := kernels.PlanConv(v8, d).TimeSec(dev)
	if t8 >= t16 {
		t.Fatalf("INT8 kernel not faster: %v vs %v", t8, t16)
	}
}

func TestInt8EngineSmallerThanFP16(t *testing.T) {
	g := models.MustBuild("vgg16")
	cfg16 := DefaultConfig(gpusim.XavierNX(), 1)
	cfg8 := DefaultConfig(gpusim.XavierNX(), 1)
	cfg8.Precision = tensor.INT8
	e16, err := Build(g, cfg16)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := Build(g, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if e8.WeightBytes() >= e16.WeightBytes() {
		t.Fatalf("INT8 weights %d not smaller than FP16 %d", e8.WeightBytes(), e16.WeightBytes())
	}
}

func TestFakeQuantBounded(t *testing.T) {
	src := fixrand.NewKeyed("fq")
	x := tensor.NewVec(256)
	for i := range x.Data {
		x.Data[i] = float32(src.NormFloat64()) * 3
	}
	q := new(tensor.Tensor)
	fakeQuantInto(x, 3.0/127, q)
	for i := range q.Data {
		diff := math.Abs(float64(q.Data[i] - clamp(x.Data[i], -3, 3)))
		if diff > 3.0/127/2+1e-6 {
			t.Fatalf("fake quant error %v at %d", diff, i)
		}
	}
}

func clamp(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
