package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// oraclePredictor returns the simulator's noise-free ground truth — the
// best predictor that can exist. Core tests use it to pin the pruning
// *mechanism* (stats accounting, guard band, choice preservation at the
// default k); the learned model's accuracy against this bound is pinned
// in internal/latpred's own tests, which may import core.
type oraclePredictor struct{}

func (oraclePredictor) PredictSec(dev *gpusim.Device, ls kernels.LaunchSpec) (float64, bool) {
	return ls.TimeSec(dev), true
}

// refusingPredictor cannot predict anything: every layer must fall back
// to full-menu timing.
type refusingPredictor struct{}

func (refusingPredictor) PredictSec(*gpusim.Device, kernels.LaunchSpec) (float64, bool) {
	return 0, false
}

// TestTunerStatsPartition pins the tactic accounting identity: every
// candidate the tuner considers is exactly one of predicted-away, served
// from the timing cache, or timed on the device.
func TestTunerStatsPartition(t *testing.T) {
	g := models.MustBuild("resnet18")
	check := func(name string, r *BuildReport) {
		t.Helper()
		if r.TacticsConsidered == 0 {
			t.Fatalf("%s: no tactics considered", name)
		}
		if got := r.PredictedPrunes + r.CacheHits + r.TacticsTimed; got != r.TacticsConsidered {
			t.Fatalf("%s: prunes %d + hits %d + timed %d = %d, want considered %d",
				name, r.PredictedPrunes, r.CacheHits, r.TacticsTimed, got, r.TacticsConsidered)
		}
	}

	plain, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	check("plain", plain.Report)
	if plain.Report.TacticsTimed != plain.Report.TacticsConsidered {
		t.Fatal("unpruned cold build must time every considered tactic")
	}

	cache := NewTimingCache()
	cold := nxCfg(1)
	cold.TimingCache = cache
	cold.Predictor = oraclePredictor{}
	ce, err := Build(g, cold)
	if err != nil {
		t.Fatal(err)
	}
	check("pruned cold", ce.Report)
	if ce.Report.PredictedPrunes == 0 {
		t.Fatal("pruned cold build pruned nothing")
	}
	if ce.Report.PrunedTuneCostSavedSec <= 0 {
		t.Fatal("pruned cold build recorded no saved tuning cost")
	}
	if ce.Report.PredictorFallbacks != 0 {
		t.Fatalf("oracle predictor fell back %d times", ce.Report.PredictorFallbacks)
	}
	if ce.Report.TuneCostSec >= plain.Report.TuneCostSec {
		t.Fatalf("pruned build tuning cost %.6fs not below unpruned %.6fs",
			ce.Report.TuneCostSec, plain.Report.TuneCostSec)
	}

	// Warm pruned rebuild of the same config: the kept set is a pure
	// function of the build's noise streams, so an identical rebuild
	// keeps exactly the cached candidates — pruning happens before the
	// cache is consulted, kept candidates all hit, and nothing is timed.
	// (A *different* build id may keep a slightly different set; full
	// cache coverage for that case is TestPrunedWarmBuildReproducible.)
	we, err := Build(g, cold)
	if err != nil {
		t.Fatal(err)
	}
	check("pruned warm", we.Report)
	if we.Report.TacticsTimed != 0 || we.Report.TuneCostSec != 0 {
		t.Fatalf("warm pruned build timed %d tactics (%.6fs)",
			we.Report.TacticsTimed, we.Report.TuneCostSec)
	}
	if we.Report.CacheMisses != 0 {
		t.Fatalf("warm pruned build missed %d cache entries", we.Report.CacheMisses)
	}
}

// TestPrunedZooChoicesUnchangedOracle pins the acceptance property of
// the default k at the mechanism level: with an exact predictor, pruned
// builds across the whole model zoo pick byte-identical tactics while
// cutting the modeled tactic-timing cost by at least half. The noise
// streams make this nontrivial — the pruner must rank by the time the
// tuner will *observe*, not the base time, or the per-build systematic
// family bias re-orders winners out of the kept set.
func TestPrunedZooChoicesUnchangedOracle(t *testing.T) {
	var totalUn, totalPr float64
	for _, name := range models.List() {
		g := models.MustBuild(name)
		un, err := Build(g, nxCfg(3))
		if err != nil {
			t.Fatal(err)
		}
		cfg := nxCfg(3)
		cfg.Predictor = oraclePredictor{}
		pr, err := Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(un.Choices, pr.Choices) {
			t.Fatalf("%s: pruned build changed tactic choices", name)
		}
		totalUn += un.Report.TuneCostSec
		totalPr += pr.Report.TuneCostSec
	}
	if cut := 1 - totalPr/totalUn; cut < 0.5 {
		t.Fatalf("zoo tuning-cost cut %.1f%% below 50%%", 100*cut)
	}
}

// TestPredictorFallbackKeepsFullMenu: a predictor that refuses every
// launch must leave the build byte-identical to an unpruned one, with
// the refusals visible in the stats.
func TestPredictorFallbackKeepsFullMenu(t *testing.T) {
	g := models.MustBuild("mobilenetv1")
	un, err := Build(g, nxCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := nxCfg(2)
	cfg.Predictor = refusingPredictor{}
	fb, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(un.Choices, fb.Choices) {
		t.Fatal("fallback build changed tactic choices")
	}
	if fb.Report.TuneCostSec != un.Report.TuneCostSec {
		t.Fatalf("fallback tuning cost %.6fs != unpruned %.6fs",
			fb.Report.TuneCostSec, un.Report.TuneCostSec)
	}
	if fb.Report.PredictorFallbacks == 0 {
		t.Fatal("refusing predictor recorded no fallbacks")
	}
	if fb.Report.PredictedPrunes != 0 {
		t.Fatalf("refusing predictor pruned %d tactics", fb.Report.PredictedPrunes)
	}
}

// TestParseTimingKeyRoundTrip runs every candidate the tuner can emit —
// conv and GEMM menus across precisions, grouped and strided shapes —
// through TimingKey and back.
func TestParseTimingKeyRoundTrip(t *testing.T) {
	dims := []kernels.ConvDims{
		{Batch: 1, InC: 64, H: 56, W: 56, OutC: 64, OutH: 56, OutW: 56, Kernel: 3, Stride: 1, Groups: 1},
		{Batch: 8, InC: 128, H: 28, W: 28, OutC: 256, OutH: 14, OutW: 14, Kernel: 3, Stride: 2, Groups: 1},
		{Batch: 2, InC: 96, H: 14, W: 14, OutC: 96, OutH: 14, OutW: 14, Kernel: 3, Stride: 1, Groups: 96},
		{Batch: 1, InC: 2048, H: 1, W: 1, OutC: 1000, OutH: 1, OutW: 1, Kernel: 1, Stride: 1, Groups: 1},
	}
	devices := []string{"NX@1109MHz", "AGX@1377MHz", "NX@599MHz"}
	for _, d := range dims {
		for _, prec := range []tensor.Precision{tensor.FP32, tensor.FP16, tensor.INT8} {
			cands := append(kernels.ConvCandidates(d, prec), kernels.GEMMCandidates(d, prec)...)
			for _, v := range cands {
				for _, dev := range devices {
					key := TimingKey(dev, v, d, prec)
					gotDev, gotV, gotD, gotPrec, err := ParseTimingKey(key)
					if err != nil {
						t.Fatalf("parse %q: %v", key, err)
					}
					if gotDev != dev || gotV != v || gotD != d || gotPrec != prec {
						t.Fatalf("round trip of %q: got (%q, %+v, %+v, %d)", key, gotDev, gotV, gotD, gotPrec)
					}
					if re := TimingKey(gotDev, gotV, gotD, gotPrec); re != key {
						t.Fatalf("re-render mismatch: %q != %q", re, key)
					}
				}
			}
		}
	}
}

// TestParseTimingKeyDeviceWithPipe: the device component is free text
// and may itself contain the separator; the grammar segments are
// anchored from the right.
func TestParseTimingKeyDeviceWithPipe(t *testing.T) {
	d := kernels.ConvDims{Batch: 1, InC: 3, H: 224, W: 224, OutC: 64, OutH: 112, OutW: 112, Kernel: 7, Stride: 2, Groups: 1}
	v := kernels.ConvCandidates(d, tensor.FP16)[0]
	dev := "lab|rig-7@900MHz"
	key := TimingKey(dev, v, d, tensor.FP16)
	gotDev, gotV, gotD, gotPrec, err := ParseTimingKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if gotDev != dev || gotV != v || gotD != d || gotPrec != tensor.FP16 {
		t.Fatalf("pipe-bearing device mangled: %q %+v", gotDev, gotV)
	}
}

// TestParseTimingKeyRejectsMalformed: cache keys arrive from files on
// disk and must never panic the parser.
func TestParseTimingKeyRejectsMalformed(t *testing.T) {
	d := kernels.ConvDims{Batch: 1, InC: 64, H: 56, W: 56, OutC: 64, OutH: 56, OutW: 56, Kernel: 3, Stride: 1, Groups: 1}
	v := kernels.ConvCandidates(d, tensor.FP16)[0]
	valid := TimingKey("NX@1109MHz", v, d, tensor.FP16)
	bad := []string{
		"",
		"no separators at all",
		"only|three|segments",
		"|" + valid[len("NX@1109MHz|"):], // empty device
		"NX|hmma-conv.t64x64x32.sk0.nchw.a0|b1.ic64|p1", // segment field counts wrong
		"NX|nosuchfam.t64x64x32.sk0.nchw.a0.p1|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p1",
		"NX|hmma-conv.t64x64.sk0.nchw.a0.p1|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p1",     // 2-part tile
		"NX|hmma-conv.t64x64x32.sk-1.nchw.a0.p1|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p1", // signed int
		"NX|hmma-conv.t64x64x32.sk0.nhcw.a0.p1|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p1",  // bad layout
		"NX|hmma-conv.t64x64x32.sk0.nchw.a2.p1|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p1",  // act flag > 1
		"NX|hmma-conv.t64x64x32.sk0.nchw.a0.p9|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p1",  // bad precision
		"NX|hmma-conv.t64x64x32.sk0.nchw.a0.p1|b1.ic64.s56x56oc64.o56x56-k3.st1.g1|p1",   // missing '-'
		"NX|hmma-conv.t64x64x32.sk0.nchw.a0.p1|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p12", // engine precision
		valid + "|trailer",
		valid[:len(valid)-1] + "x",
	}
	for _, key := range bad {
		if _, _, _, _, err := ParseTimingKey(key); err == nil {
			t.Errorf("malformed key accepted: %q", key)
		}
	}
}

// TestTimingCacheKeysDeterministic: Keys() is the predictor's training
// iteration order, so it must be sorted and stable regardless of
// insertion order.
func TestTimingCacheKeysDeterministic(t *testing.T) {
	a := NewTimingCache()
	b := NewTimingCache()
	keys := []string{"zz", "m", "aa", "q", "b"}
	for _, k := range keys {
		a.Insert(k, 1e-4)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Insert(keys[i], 1e-4)
	}
	ka, kb := a.Keys(), b.Keys()
	if !sort.StringsAreSorted(ka) {
		t.Fatalf("Keys() not sorted: %v", ka)
	}
	if !reflect.DeepEqual(ka, kb) {
		t.Fatalf("Keys() depends on insertion order: %v vs %v", ka, kb)
	}
	if !reflect.DeepEqual(a.Keys(), ka) {
		t.Fatal("Keys() not stable across calls")
	}
	// Mutating the returned slice must not corrupt the cache's view.
	ka[0] = "mutated"
	if reflect.DeepEqual(a.Keys(), ka) {
		t.Fatal("Keys() exposes internal state")
	}
}

// TestPrunedWarmBuildReproducible: the §VI-A property extends to pruned
// builds — with every kept tactic served from a shared cache, two pruned
// builds with different build ids and noise produce identical engines.
func TestPrunedWarmBuildReproducible(t *testing.T) {
	g := models.MustBuild("googlenet")
	cache := NewTimingCache()
	seed := nxCfg(1)
	seed.TimingCache = cache
	if _, err := Build(g, seed); err != nil {
		t.Fatal(err)
	}
	build := func(id int, noise float64) *Engine {
		cfg := nxCfg(id)
		cfg.TunerNoise = noise
		cfg.TimingCache = cache
		cfg.Predictor = oraclePredictor{}
		cfg.CanonicalWarmID = true
		e, err := Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := build(7, 0.08)
	e2 := build(31, 0.2)
	if e1.Report.TacticsTimed != 0 || e2.Report.TacticsTimed != 0 {
		t.Fatal("warm pruned builds timed tactics")
	}
	if !reflect.DeepEqual(e1.Choices, e2.Choices) {
		t.Fatal("warm pruned builds disagree on tactics")
	}
	if math.Abs(e1.Report.TuneCostSec-e2.Report.TuneCostSec) != 0 {
		t.Fatal("warm pruned builds disagree on tuning cost")
	}
}
