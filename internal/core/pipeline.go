package core

import (
	"fmt"
	"slices"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// The builder's optimization pipeline (paper Figure 2): six named passes
// in a fixed order, each individually disableable, each reporting its
// PassStats into the engine's BuildReport.

// PassStats instruments one pipeline stage. Fields are zero where a
// counter does not apply to the pass.
type PassStats struct {
	Pass     string
	Disabled bool

	LayersRemoved    int // dead-layer-removal
	LayersFused      int // vertical-fusion
	LayersCalibrated int // int8-calibration
	TensorsQuantized int // quantization
	MergeGroups      int // horizontal-merge: sibling groups found
	MergedLaunches   int // kernel-tuning: launches saved by merging

	// Tactic-timing instrumentation (kernel-tuning pass). Every candidate
	// entering tactic selection is considered; it is then either pruned
	// by the latency predictor, served from the timing cache, or timed on
	// the device: TacticsConsidered == PredictedPrunes + CacheHits +
	// TacticsTimed (TestTunerStatsPartition pins the partition).
	TacticsConsidered int     // candidates entering tactic selection
	TacticsTimed      int     // measured on the device
	CacheHits         int     // served from the timing cache
	CacheMisses       int     // cache configured but entry absent
	TuneCostSec       float64 // simulated device time spent timing tactics

	// Learned-predictor pruning instrumentation (kernel-tuning pass).
	PredictedPrunes        int     // candidates skipped by predicted rank
	PredictorFallbacks     int     // layers timed in full (low confidence)
	PrunedTuneCostSavedSec float64 // modeled timing cost of skipped candidates
}

// BuildReport is the engine's build provenance: one PassStats per
// pipeline stage plus tactic-timing totals. It travels with the
// serialized plan.
type BuildReport struct {
	Passes []PassStats

	// Totals across passes.
	TacticsConsidered int
	TacticsTimed      int
	CacheHits         int
	CacheMisses       int
	// TuneCostSec is the simulated cost of the build's tactic timing
	// (the dominant term of a real trtexec build). Warm-cache builds
	// skip re-timing, so this is the mechanically-earned speedup.
	TuneCostSec float64

	// Learned-predictor pruning totals (see PassStats).
	PredictedPrunes        int
	PredictorFallbacks     int
	PrunedTuneCostSavedSec float64

	// WarmBuild reports that a timing cache was configured and every
	// tactic came from it: the engine is a pure function of (model,
	// platform, precision, cache), independent of build id and noise.
	WarmBuild bool

	// ExpectedLatencySec is the noise-free plan latency on the build
	// device at the build clock (Engine.ExpectedLatencySec at build
	// time): the per-replica baseline a serving-side latency watchdog
	// compares observed run latencies against.
	ExpectedLatencySec float64
}

// Pass returns the stats of a named pass, or nil if the report has
// none.
func (r *BuildReport) Pass(name string) *PassStats {
	for i := range r.Passes {
		if r.Passes[i].Pass == name {
			return &r.Passes[i]
		}
	}
	return nil
}

// Canonical pass names: the BuildReport's labels and the DisablePasses
// vocabulary.
const (
	PassDeadLayerRemoval = "dead-layer-removal"
	PassVerticalFusion   = "vertical-fusion"
	PassInt8Calibration  = "int8-calibration"
	PassQuantization     = "quantization"
	PassHorizontalMerge  = "horizontal-merge"
	PassKernelTuning     = "kernel-tuning"
)

// build is one engine under construction: the passes rewrite its graph,
// and horizontal-merge hands its sibling groups to kernel-tuning (both
// maps stay nil when merging is disabled).
type build struct {
	cfg    BuildConfig
	e      *Engine
	leader map[string]string
	groups map[string][]string
}

// pass is one named stage of the pipeline.
type pass struct {
	name string
	run  func(*build) (PassStats, error)
}

// pipeline is the builder in the paper's Figure 2 order: dead-layer
// removal, vertical fusion, INT8 calibration (on the still-FP32 fused
// graph), weight quantization, horizontal merging, and timing-based
// kernel tuning.
var pipeline = [...]pass{
	{PassDeadLayerRemoval, (*build).removeDeadLayers},
	{PassVerticalFusion, (*build).fuseVertically},
	{PassInt8Calibration, (*build).calibrate},
	{PassQuantization, (*build).quantize},
	{PassHorizontalMerge, (*build).mergeHorizontally},
	{PassKernelTuning, (*build).tuneKernels},
}

// Build runs the pipeline on a model graph and returns a deployable
// engine with its BuildReport. A pass named in cfg.DisablePasses is
// skipped and reported Disabled; an unknown name is an error. The input
// graph is not modified.
func Build(src *graph.Graph, cfg BuildConfig) (*Engine, error) {
	for _, n := range cfg.DisablePasses {
		if !slices.ContainsFunc(pipeline[:], func(p pass) bool { return p.name == n }) {
			return nil, fmt.Errorf("core: cannot disable unknown pass %q", n)
		}
	}
	if !src.Finalized() {
		return nil, fmt.Errorf("core: build of unfinalized graph %s", src.Name)
	}
	g := src.Clone()
	g.Outputs = append([]string(nil), src.Outputs...)

	e := &Engine{
		ModelName: src.Name,
		Platform:  cfg.Platform.Short(),
		BuildID:   cfg.BuildID,
		Precision: cfg.Precision,
		Graph:     g,
		Choices:   map[string]kernels.Variant{},
		Fusions:   map[string]Fusion{},
		Numeric:   hasWeights(g),
	}
	b := &build{cfg: cfg, e: e}
	report := &BuildReport{}
	for _, p := range pipeline {
		stats := PassStats{Disabled: true}
		if !slices.Contains(cfg.DisablePasses, p.name) {
			var err error
			if stats, err = p.run(b); err != nil {
				return nil, err
			}
		}
		stats.Pass = p.name
		report.Passes = append(report.Passes, stats)
		report.TacticsConsidered += stats.TacticsConsidered
		report.TacticsTimed += stats.TacticsTimed
		report.CacheHits += stats.CacheHits
		report.CacheMisses += stats.CacheMisses
		report.TuneCostSec += stats.TuneCostSec
		report.PredictedPrunes += stats.PredictedPrunes
		report.PredictorFallbacks += stats.PredictorFallbacks
		report.PrunedTuneCostSavedSec += stats.PrunedTuneCostSavedSec
	}

	report.ExpectedLatencySec = e.ExpectedLatencySec(gpusim.NewDevice(cfg.Platform, cfg.ClockMHz), false)
	if cfg.TimingCache != nil && report.CacheMisses == 0 {
		report.WarmBuild = true
		// A fully-warm build never sampled tuner noise: the engine is
		// independent of the build counter. When the caller opts in, the
		// plan is stamped with the canonical build id 0 so independent
		// warm rebuilds serialize byte-identically (paper §VI-A).
		if cfg.CanonicalWarmID {
			e.BuildID = 0
		}
	}
	e.Report = report
	e.plan, e.charge = compile(e), chargeLayers(e)
	return e, nil
}

// --- the six passes ---

func (b *build) removeDeadLayers() (PassStats, error) {
	removed := deadLayerRemoval(b.e.Graph)
	if err := b.e.Graph.Finalize(); err != nil {
		return PassStats{}, fmt.Errorf("core: after dead-layer removal: %w", err)
	}
	b.e.RemovedLayers = removed
	return PassStats{LayersRemoved: removed}, nil
}

func (b *build) fuseVertically() (PassStats, error) {
	fusions, fused := verticalFusion(b.e.Graph)
	if err := b.e.Graph.Finalize(); err != nil {
		return PassStats{}, fmt.Errorf("core: after vertical fusion: %w", err)
	}
	b.e.Fusions, b.e.FusedLayers = fusions, fused
	return PassStats{LayersFused: fused}, nil
}

// calibrate records INT8 activation ranges on the still-FP32 fused graph
// before weights are quantized; other precisions skip it.
func (b *build) calibrate() (PassStats, error) {
	g := b.e.Graph
	if b.cfg.Precision != tensor.INT8 || !hasWeights(g) {
		return PassStats{}, nil
	}
	if b.cfg.Calibrator == nil {
		return PassStats{}, fmt.Errorf("core: INT8 build of %s requires a Calibrator", b.e.ModelName)
	}
	ranges, err := b.cfg.Calibrator.Ranges(g)
	if err != nil {
		return PassStats{}, err
	}
	b.e.Int8Ranges = ranges
	return PassStats{LayersCalibrated: len(ranges)}, nil
}

func (b *build) quantize() (PassStats, error) {
	n := quantizeWeights(b.e.Graph, b.cfg.Precision, b.cfg.PruneFrac)
	return PassStats{TensorsQuantized: n}, nil
}

func (b *build) mergeHorizontally() (PassStats, error) {
	b.leader, b.groups = horizontalGroups(b.e.Graph)
	return PassStats{MergeGroups: len(b.groups)}, nil
}

func (b *build) tuneKernels() (PassStats, error) {
	dev := gpusim.NewDevice(b.cfg.Platform, b.cfg.ClockMHz)
	var stats PassStats
	tn := newTuner(dev, b.e, b.cfg, &stats)
	if err := planLaunches(b.e, tn, b.cfg, b.leader, b.groups); err != nil {
		return PassStats{}, err
	}
	stats.MergedLaunches = b.e.MergedLaunches
	return stats, nil
}
