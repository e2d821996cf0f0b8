package latpred

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// seedCache builds every zoo model once on a device and returns the
// populated timing cache — the predictor's training corpus.
func seedCache(t testing.TB, spec gpusim.DeviceSpec) *core.TimingCache {
	t.Helper()
	cache := core.NewTimingCache()
	for _, name := range models.List() {
		cfg := core.DefaultConfig(spec, 1)
		cfg.TimingCache = cache
		if _, err := core.Build(models.MustBuild(name), cfg); err != nil {
			t.Fatal(err)
		}
	}
	return cache
}

func trainNX(t testing.TB) *Model {
	t.Helper()
	m, stats, err := Train(seedCache(t, gpusim.XavierNX()), DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows == 0 || stats.Skipped != 0 {
		t.Fatalf("training consumed %d rows, skipped %d (cache keys should all parse)",
			stats.Rows, stats.Skipped)
	}
	return m
}

func TestTrainFitsMajorFamilies(t *testing.T) {
	m := trainNX(t)
	for _, fam := range []kernels.Family{kernels.FamHMMAConv, kernels.FamWinograd, kernels.FamCUDAConv, kernels.FamGEMM} {
		fm, ok := m.Family(fam)
		if !ok {
			t.Fatalf("family %s not fitted", fam)
		}
		if fm.ResidualLog > m.MaxResidualLog {
			t.Fatalf("family %s residual %.3f above gate %.3f", fam, fm.ResidualLog, m.MaxResidualLog)
		}
		if fm.Rows < 3*NumFeatures {
			t.Fatalf("family %s fitted from only %d rows", fam, fm.Rows)
		}
	}
}

// TestPredictAccuracyOnTrainingDevice: same-device predictions should
// land within the tuner's own noise envelope — the cache entries carry
// ~13% multiplicative noise, so median error well under 25% means the
// model learned the latency surface rather than the noise.
func TestPredictAccuracyOnTrainingDevice(t *testing.T) {
	m := trainNX(t)
	dev := gpusim.NewDevice(gpusim.XavierNX(), 0)
	var errs []float64
	for _, d := range testDims() {
		for _, v := range kernels.ConvCandidates(d, tensor.FP16) {
			ls := kernels.PlanConv(v, d)
			got, ok := m.PredictSec(dev, ls)
			if !ok {
				continue
			}
			truth := ls.TimeSec(dev)
			errs = append(errs, math.Abs(got-truth)/truth)
		}
	}
	if len(errs) < 20 {
		t.Fatalf("only %d predictions made", len(errs))
	}
	if med := median(errs); med > 0.25 {
		t.Fatalf("median same-device error %.1f%% above 25%%", 100*med)
	}
}

func testDims() []kernels.ConvDims {
	return []kernels.ConvDims{
		{Batch: 1, InC: 64, H: 56, W: 56, OutC: 64, OutH: 56, OutW: 56, Kernel: 3, Stride: 1, Groups: 1},
		{Batch: 1, InC: 128, H: 28, W: 28, OutC: 256, OutH: 14, OutW: 14, Kernel: 3, Stride: 2, Groups: 1},
		{Batch: 4, InC: 256, H: 14, W: 14, OutC: 256, OutH: 14, OutW: 14, Kernel: 3, Stride: 1, Groups: 1},
		{Batch: 1, InC: 32, H: 112, W: 112, OutC: 64, OutH: 112, OutW: 112, Kernel: 1, Stride: 1, Groups: 1},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// TestPrunedZooChoicesUnchanged is the acceptance pin for the learned
// predictor at the tuner's k: across the whole model zoo and build ids
// 2-4, pruned cold builds pick byte-identical tactics while cutting the
// modeled tactic-timing cost by at least half, and the zoo's tactic
// counts and cut hold their exact values.
func TestPrunedZooChoicesUnchanged(t *testing.T) {
	m := trainNX(t)
	var totalUn, totalPr float64
	var timedUn, timedPr, totalPrunes, totalFallbacks, engines int
	for build := 2; build <= 4; build++ {
		for _, name := range models.List() {
			g := models.MustBuild(name)
			un, err := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), build))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(gpusim.XavierNX(), build)
			cfg.Predictor = m
			pr, err := core.Build(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(un.Choices, pr.Choices) {
				for l, v := range un.Choices {
					if pr.Choices[l] != v {
						t.Errorf("%s build %d layer %s: %v -> %v", name, build, l, v, pr.Choices[l])
					}
				}
				t.Fatalf("%s build %d: pruned build changed tactic choices", name, build)
			}
			totalUn += un.Report.TuneCostSec
			totalPr += pr.Report.TuneCostSec
			timedUn += un.Report.TacticsTimed
			timedPr += pr.Report.TacticsTimed
			totalPrunes += pr.Report.PredictedPrunes
			totalFallbacks += pr.Report.PredictorFallbacks
			engines++
		}
	}
	cut := 1 - totalPr/totalUn
	if cut < 0.5 {
		t.Fatalf("zoo tuning-cost cut %.1f%% below 50%%", 100*cut)
	}
	if totalPrunes == 0 {
		t.Fatal("learned predictor pruned nothing")
	}
	// The zoo's exact totals: a change to the tuner, the noise streams,
	// the training corpus or the fit moves at least one of them.
	got := fmt.Sprintf("%d engines, tactics timed %d unpruned %d pruned, %d prunes, %d fallbacks, cut %.4f",
		engines, timedUn, timedPr, totalPrunes, totalFallbacks, cut)
	if want := "39 engines, tactics timed 10380 unpruned 6501 pruned, 3879 prunes, 0 fallbacks, cut 0.7454"; got != want {
		t.Fatalf("zoo totals moved:\n got %s\nwant %s", got, want)
	}
	t.Logf("zoo cut %.1f%%, %d prunes, %d fallbacks", 100*cut, totalPrunes, totalFallbacks)
}

// TestConfidenceGateFallsBack: inflating a family's residual above the
// gate must turn its predictions off, and a build using such a model
// must still pick identical tactics (via full-menu fallback).
func TestConfidenceGateFallsBack(t *testing.T) {
	m := trainNX(t)
	fams := map[kernels.Family]*FamilyModel{}
	for _, f := range m.Families() {
		fm := *mustFamily(t, m, f)
		fm.ResidualLog = m.MaxResidualLog + 1
		fams[f] = &fm
	}
	gated := NewModel(m.MaxResidualLog, fams)

	dev := gpusim.NewDevice(gpusim.XavierNX(), 0)
	d := testDims()[0]
	ls := kernels.PlanConv(kernels.ConvCandidates(d, tensor.FP16)[0], d)
	if _, ok := gated.PredictSec(dev, ls); ok {
		t.Fatal("gated family still predicts")
	}

	g := models.MustBuild("alexnet")
	un, err := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(gpusim.XavierNX(), 2)
	cfg.Predictor = gated
	fb, err := core.Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(un.Choices, fb.Choices) {
		t.Fatal("gated build changed tactic choices")
	}
	if fb.Report.PredictorFallbacks == 0 || fb.Report.PredictedPrunes != 0 {
		t.Fatalf("gated build: %d fallbacks, %d prunes", fb.Report.PredictorFallbacks, fb.Report.PredictedPrunes)
	}
	if fb.Report.TuneCostSec != un.Report.TuneCostSec {
		t.Fatal("gated build's tuning cost differs from unpruned")
	}
}

func mustFamily(t *testing.T, m *Model, f kernels.Family) *FamilyModel {
	t.Helper()
	fm, ok := m.Family(f)
	if !ok {
		t.Fatalf("family %s missing", f)
	}
	return fm
}

func TestTrainFilters(t *testing.T) {
	cache := seedCache(t, gpusim.XavierNX())
	opts := DefaultTrainOptions()
	opts.Devices = []string{"AGX"}
	if _, stats, err := Train(cache, opts); err == nil {
		t.Fatalf("training on absent device succeeded (%d rows)", stats.Rows)
	} else if stats.Skipped == 0 {
		t.Fatal("device filter skipped nothing")
	}
	if _, _, err := Train(nil, DefaultTrainOptions()); err == nil {
		t.Fatal("nil cache accepted")
	}
	if _, _, err := Train(core.NewTimingCache(), DefaultTrainOptions()); err == nil {
		t.Fatal("empty cache accepted")
	}
	// Foreign keys are skipped, not fatal.
	mixed := seedCache(t, gpusim.XavierNX())
	mixed.Insert("not-a-timing-key", 1e-4)
	if _, stats, err := Train(mixed, DefaultTrainOptions()); err != nil {
		t.Fatal(err)
	} else if stats.Skipped != 1 {
		t.Fatalf("foreign key skipped %d times", stats.Skipped)
	}
}

func TestDeviceKeyRoundTrip(t *testing.T) {
	for _, spec := range []gpusim.DeviceSpec{gpusim.XavierNX(), gpusim.XavierAGX()} {
		for _, clock := range []float64{0, 599, 1109} {
			dev := gpusim.NewDevice(spec, clock)
			got, err := ParseDeviceKey(DeviceKey(dev))
			if err != nil {
				t.Fatal(err)
			}
			if got.Spec.Short() != spec.Short() || got.ClockMHz != dev.ClockMHz {
				t.Fatalf("round trip %q -> %s@%.0f", DeviceKey(dev), got.Spec.Short(), got.ClockMHz)
			}
		}
	}
	for _, bad := range []string{"", "NX", "NX@", "NX@MHz", "NX@-5MHz", "NX@900", "Orin@900MHz", "@900MHz"} {
		if _, err := ParseDeviceKey(bad); err == nil {
			t.Errorf("malformed device key accepted: %q", bad)
		}
	}
}

// TestTransferToUnseenDevice: a model trained purely on NX entries must
// still predict AGX launches with usable accuracy — the device terms are
// features, not per-device fits. The full quantitative comparison
// against the analytic BSP model is the §VI-B extension study.
func TestTransferToUnseenDevice(t *testing.T) {
	m := trainNX(t)
	dev := gpusim.NewDevice(gpusim.XavierAGX(), 0)
	var errs []float64
	for _, d := range testDims() {
		for _, v := range kernels.ConvCandidates(d, tensor.FP16) {
			ls := kernels.PlanConv(v, d)
			got, ok := m.PredictSec(dev, ls)
			if !ok {
				continue
			}
			truth := ls.TimeSec(dev)
			errs = append(errs, math.Abs(got-truth)/truth)
		}
	}
	if len(errs) < 20 {
		t.Fatalf("only %d transfer predictions made", len(errs))
	}
	if med := median(errs); med > 0.40 {
		t.Fatalf("median unseen-device error %.1f%% above 40%%", 100*med)
	}
}
