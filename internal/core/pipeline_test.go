package core

import (
	"bytes"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/models"
)

func TestBuildReportPerPassStats(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	r := e.Report
	if r == nil {
		t.Fatal("engine has no BuildReport")
	}
	wantOrder := []string{
		PassDeadLayerRemoval, PassVerticalFusion, PassInt8Calibration,
		PassQuantization, PassHorizontalMerge, PassKernelTuning,
	}
	if len(r.Passes) != len(wantOrder) {
		t.Fatalf("report has %d passes, want %d", len(r.Passes), len(wantOrder))
	}
	for i, name := range wantOrder {
		if r.Passes[i].Pass != name {
			t.Errorf("pass %d = %q, want %q", i, r.Passes[i].Pass, name)
		}
	}
	// tinyNet has a two-layer dead aux head plus one dropout: exactly 3.
	if got := r.Pass(PassDeadLayerRemoval).LayersRemoved; got != 3 {
		t.Errorf("dead-layer pass removed %d, want 3", got)
	}
	if got := r.Pass(PassDeadLayerRemoval).LayersRemoved; got != e.RemovedLayers {
		t.Errorf("report (%d) and engine (%d) disagree on removed layers", got, e.RemovedLayers)
	}
	if got := r.Pass(PassVerticalFusion).LayersFused; got != e.FusedLayers || got == 0 {
		t.Errorf("fusion pass reports %d fused (engine %d)", got, e.FusedLayers)
	}
	if got := r.Pass(PassQuantization).TensorsQuantized; got == 0 {
		t.Errorf("quantization pass quantized no tensors on a numeric graph")
	}
	// The two 1x1 projection siblings form one merge group.
	if got := r.Pass(PassHorizontalMerge).MergeGroups; got != 1 {
		t.Errorf("horizontal-merge found %d groups, want 1", got)
	}
	kt := r.Pass(PassKernelTuning)
	if kt.MergedLaunches != e.MergedLaunches || kt.MergedLaunches != 1 {
		t.Errorf("kernel-tuning merged %d launches (engine %d), want 1", kt.MergedLaunches, e.MergedLaunches)
	}
	if kt.TacticsTimed == 0 || kt.TacticsTimed != r.TacticsTimed {
		t.Errorf("tactics timed: pass %d, total %d", kt.TacticsTimed, r.TacticsTimed)
	}
	if kt.TuneCostSec <= 0 {
		t.Errorf("cold build reports no tuning cost")
	}
	if r.CacheHits != 0 || r.CacheMisses != 0 || r.WarmBuild {
		t.Errorf("cache counters active without a cache: %+v", r)
	}
}

func TestBuildReportGoogLeNetMerges(t *testing.T) {
	g, err := models.Build("googlenet")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// GoogLeNet's inception modules are the paper's canonical horizontal-
	// merge example (Figure 2, step 3): the report must show them.
	if got := e.Report.Pass(PassHorizontalMerge).MergeGroups; got == 0 {
		t.Fatal("googlenet reports zero horizontal merge groups")
	}
	if got := e.Report.Pass(PassKernelTuning).MergedLaunches; got == 0 {
		t.Fatal("googlenet reports zero merged launches")
	}
	if got := e.Report.Pass(PassDeadLayerRemoval).LayersRemoved; got == 0 {
		t.Fatal("googlenet's auxiliary heads were not removed")
	}
}

func TestDisablePasses(t *testing.T) {
	cfg := nxCfg(1)
	cfg.DisablePasses = []string{PassHorizontalMerge}
	e, err := Build(tinyNet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.MergedLaunches != 0 {
		t.Errorf("merging disabled but %d launches merged", e.MergedLaunches)
	}
	ps := e.Report.Pass(PassHorizontalMerge)
	if !ps.Disabled || ps.MergeGroups != 0 {
		t.Errorf("disabled pass not reported as such: %+v", ps)
	}
	// The siblings must now be planned as individual launches.
	base, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Launches) != len(base.Launches)+1 {
		t.Errorf("unmerged plan has %d launches, merged %d: want exactly one more", len(e.Launches), len(base.Launches))
	}
}

func TestDisableUnknownPassErrors(t *testing.T) {
	cfg := nxCfg(1)
	cfg.DisablePasses = []string{"no-such-pass"}
	if _, err := Build(tinyNet(t), cfg); err == nil {
		t.Fatal("disabling an unknown pass did not error")
	}
}

// TestWarmRebuildsByteIdentical is the §VI-A mechanism end to end, on
// each platform: a cold build populates a timing cache; two independent
// rebuilds with different build ids and different noise settings take
// every tactic from the cache and serialize to byte-identical plans, at
// a simulated build cost ≥2× (in fact ≫2×) below the cold build's.
func TestWarmRebuildsByteIdentical(t *testing.T) {
	g, err := models.Build("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range gpusim.Platforms() {
		t.Run(spec.Short(), func(t *testing.T) {
			cache := NewTimingCache()
			cold := DefaultConfig(spec, 1)
			cold.TimingCache = cache
			ce, err := Build(g, cold)
			if err != nil {
				t.Fatal(err)
			}
			if ce.Report.CacheMisses == 0 || ce.Report.WarmBuild {
				t.Fatalf("cold build did not miss: %+v", ce.Report)
			}

			warm := func(buildID int, noise float64) *Engine {
				cfg := DefaultConfig(spec, buildID)
				cfg.TunerNoise = noise
				cfg.TimingCache = cache
				cfg.CanonicalWarmID = true
				e, err := Build(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			w1, w2 := warm(7, 0.02), warm(9, 0.31)
			for _, w := range []*Engine{w1, w2} {
				if !w.Report.WarmBuild || w.Report.CacheMisses != 0 {
					t.Fatalf("rebuild not warm: %+v", w.Report)
				}
				if w.BuildID != 0 {
					t.Fatalf("warm canonical build id = %d, want 0", w.BuildID)
				}
			}
			var b1, b2 bytes.Buffer
			if err := w1.Save(&b1); err != nil {
				t.Fatal(err)
			}
			if err := w2.Save(&b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatalf("warm rebuilds differ: %d vs %d bytes", b1.Len(), b2.Len())
			}
			// Warm rebuilds select exactly the tactics the cold build measured.
			for layer, v := range ce.Choices {
				if w1.Choices[layer] != v {
					t.Fatalf("warm rebuild diverged from cold tactics at %s", layer)
				}
			}
			if w1.Report.TuneCostSec*2 > ce.Report.TuneCostSec {
				t.Fatalf("warm build cost %.6fs not ≥2× below cold %.6fs",
					w1.Report.TuneCostSec, ce.Report.TuneCostSec)
			}
		})
	}
}

// TestNoCacheBuildUnchanged pins that a nil TimingCache reproduces the
// pre-pipeline builder exactly (the golden engine fields the rest of the
// suite asserts; tables are compared wholesale in EXPERIMENTS.md).
func TestNoCacheBuildUnchanged(t *testing.T) {
	g, err := models.Build("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(g, nxCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, nxCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := a.Save(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("same-config builds are not reproducible")
	}
}

// The acceptance benchmark pair. Tactic timing dominates a real trtexec
// build but is *simulated* here (no sleeping), so each benchmark also
// reports the modeled device-timing cost as sim-build-ms/op — the metric
// on which warm rebuilds are ≥2× (in fact ∞×) cheaper; wall clock
// improves too (no noise sampling, no timing model evaluation).
func BenchmarkBuildCold(b *testing.B) {
	g, err := models.Build("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	var tuneSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := nxCfg(i + 1)
		cfg.TimingCache = NewTimingCache() // fresh: every tactic timed
		e, err := Build(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuneSec += e.Report.TuneCostSec
	}
	b.ReportMetric(tuneSec*1e3/float64(b.N), "sim-build-ms/op")
}

func BenchmarkBuildWarm(b *testing.B) {
	g, err := models.Build("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	cache := NewTimingCache()
	seed := nxCfg(1)
	seed.TimingCache = cache
	if _, err := Build(g, seed); err != nil {
		b.Fatal(err)
	}
	var tuneSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := nxCfg(i + 2)
		cfg.TimingCache = cache
		cfg.CanonicalWarmID = true
		e, err := Build(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tuneSec += e.Report.TuneCostSec
	}
	b.ReportMetric(tuneSec*1e3/float64(b.N), "sim-build-ms/op")
}
