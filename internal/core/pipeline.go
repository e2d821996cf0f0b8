package core

import (
	"fmt"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// The builder's optimization pipeline (paper Figure 2) as named,
// reorderable, individually-disableable passes. Build wires the default
// pipeline; NewPassManager lets ablations reorder or drop stages and
// still get a deployable engine plus a per-pass BuildReport.

// PassStats instruments one pipeline stage. Fields are zero where a
// counter does not apply to the pass.
type PassStats struct {
	Pass     string
	Disabled bool `json:",omitempty"`

	LayersRemoved    int `json:",omitempty"` // dead-layer-removal
	LayersFused      int `json:",omitempty"` // vertical-fusion
	LayersCalibrated int `json:",omitempty"` // int8-calibration
	TensorsQuantized int `json:",omitempty"` // quantization
	MergeGroups      int `json:",omitempty"` // horizontal-merge: sibling groups found
	MergedLaunches   int `json:",omitempty"` // kernel-tuning: launches saved by merging

	// Tactic-timing instrumentation (kernel-tuning pass). Every candidate
	// entering tactic selection is considered; it is then either pruned
	// by the latency predictor, served from the timing cache, or timed on
	// the device: TacticsConsidered == PredictedPrunes + CacheHits +
	// TacticsTimed (TestTunerStatsPartition pins the partition).
	TacticsConsidered int     `json:",omitempty"` // candidates entering tactic selection
	TacticsTimed      int     `json:",omitempty"` // measured on the device
	CacheHits         int     `json:",omitempty"` // served from the timing cache
	CacheMisses       int     `json:",omitempty"` // cache configured but entry absent
	TuneCostSec       float64 `json:",omitempty"` // simulated device time spent timing tactics

	// Learned-predictor pruning instrumentation (kernel-tuning pass).
	PredictedPrunes        int     `json:",omitempty"` // candidates skipped by predicted rank
	PredictorFallbacks     int     `json:",omitempty"` // layers timed in full (low confidence)
	PrunedTuneCostSavedSec float64 `json:",omitempty"` // modeled timing cost of skipped candidates
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
	PredictedPrunes        int     `json:",omitempty"`
	PredictorFallbacks     int     `json:",omitempty"`
	PrunedTuneCostSavedSec float64 `json:",omitempty"`

	// WarmBuild reports that a timing cache was configured and every
	// tactic came from it: the engine is a pure function of (model,
	// platform, precision, cache), independent of build id and noise.
	WarmBuild bool

	// ExpectedLatencySec is the noise-free plan latency on the build
	// device at the build clock (Engine.ExpectedLatencySec at build
	// time): the per-replica baseline a serving-side latency watchdog
	// compares observed run latencies against.
	ExpectedLatencySec float64 `json:",omitempty"`
}

// Pass returns the stats of a named pass, or nil if the pipeline did not
// contain it.
func (r *BuildReport) Pass(name string) *PassStats {
	for i := range r.Passes {
		if r.Passes[i].Pass == name {
			return &r.Passes[i]
		}
	}
	return nil
}

// PassContext is the mutable state a pass operates on: the engine under
// construction (whose Graph the passes rewrite) and the artifacts passes
// hand to later stages.
type PassContext struct {
	Cfg    BuildConfig
	Engine *Engine

	// MergeLeader/MergeGroups are produced by horizontal-merge and
	// consumed by kernel-tuning (empty when the merge pass is disabled).
	MergeLeader map[string]string
	MergeGroups map[string][]string

	// Int8Ranges are produced by int8-calibration and attached to the
	// engine for the runtime's quantized numeric path.
	Int8Ranges map[string]float32
}

// Pass is one named optimization stage of the builder pipeline.
type Pass interface {
	Name() string
	Run(pc *PassContext) (PassStats, error)
}

// Canonical pass names (the Disable / DisablePasses vocabulary).
const (
	PassDeadLayerRemoval = "dead-layer-removal"
	PassVerticalFusion   = "vertical-fusion"
	PassInt8Calibration  = "int8-calibration"
	PassQuantization     = "quantization"
	PassHorizontalMerge  = "horizontal-merge"
	PassKernelTuning     = "kernel-tuning"
)

// DefaultPasses returns the standard pipeline in the paper's Figure 2
// order: dead-layer removal, vertical fusion, INT8 calibration (on the
// still-FP32 fused graph), weight quantization, horizontal merging, and
// timing-based kernel tuning.
func DefaultPasses() []Pass {
	return []Pass{
		deadLayerPass{},
		verticalFusionPass{},
		calibrationPass{},
		quantizePass{},
		horizontalMergePass{},
		kernelTuningPass{},
	}
}

// PassManager runs a pass pipeline over a model graph.
type PassManager struct {
	passes   []Pass
	disabled map[string]bool
	hook     func(PassStats)
}

// NewPassManager assembles a pipeline from the given passes, in order.
func NewPassManager(passes ...Pass) *PassManager {
	return &PassManager{passes: passes, disabled: map[string]bool{}}
}

// Disable marks passes to be skipped (they still appear in the
// BuildReport, flagged Disabled). Unknown names error at Build time.
func (pm *PassManager) Disable(names ...string) *PassManager {
	for _, n := range names {
		pm.disabled[n] = true
	}
	return pm
}

// Hook registers a function called with each pass's stats as it
// completes (including disabled passes).
func (pm *PassManager) Hook(fn func(PassStats)) *PassManager {
	pm.hook = fn
	return pm
}

// validate checks the pipeline against its disable set.
func (pm *PassManager) validate() error {
	known := map[string]bool{}
	for _, p := range pm.passes {
		if known[p.Name()] {
			return fmt.Errorf("core: duplicate pass %q in pipeline", p.Name())
		}
		known[p.Name()] = true
	}
	for n := range pm.disabled {
		if !known[n] {
			return fmt.Errorf("core: cannot disable unknown pass %q", n)
		}
	}
	return nil
}

// Build runs the pipeline on a model graph and returns a deployable
// engine with its BuildReport. The input graph is not modified.
func (pm *PassManager) Build(src *graph.Graph, cfg BuildConfig) (*Engine, error) {
	if err := pm.validate(); err != nil {
		return nil, err
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
	report := &BuildReport{}
	pc := &PassContext{Cfg: cfg, Engine: e}

	for _, p := range pm.passes {
		var stats PassStats
		if pm.disabled[p.Name()] {
			stats = PassStats{Pass: p.Name(), Disabled: true}
		} else {
			var err error
			stats, err = p.Run(pc)
			if err != nil {
				return nil, err
			}
			stats.Pass = p.Name()
		}
		report.Passes = append(report.Passes, stats)
		report.TacticsConsidered += stats.TacticsConsidered
		report.TacticsTimed += stats.TacticsTimed
		report.CacheHits += stats.CacheHits
		report.CacheMisses += stats.CacheMisses
		report.TuneCostSec += stats.TuneCostSec
		report.PredictedPrunes += stats.PredictedPrunes
		report.PredictorFallbacks += stats.PredictorFallbacks
		report.PrunedTuneCostSavedSec += stats.PrunedTuneCostSavedSec
		if pm.hook != nil {
			pm.hook(stats)
		}
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

// --- the six standard passes ---

type deadLayerPass struct{}

func (deadLayerPass) Name() string { return PassDeadLayerRemoval }

func (deadLayerPass) Run(pc *PassContext) (PassStats, error) {
	g := pc.Engine.Graph
	removed := deadLayerRemoval(g)
	if err := g.Finalize(); err != nil {
		return PassStats{}, fmt.Errorf("core: after dead-layer removal: %w", err)
	}
	pc.Engine.RemovedLayers = removed
	return PassStats{LayersRemoved: removed}, nil
}

type verticalFusionPass struct{}

func (verticalFusionPass) Name() string { return PassVerticalFusion }

func (verticalFusionPass) Run(pc *PassContext) (PassStats, error) {
	g := pc.Engine.Graph
	fusions, fused := verticalFusion(g)
	if err := g.Finalize(); err != nil {
		return PassStats{}, fmt.Errorf("core: after vertical fusion: %w", err)
	}
	pc.Engine.Fusions = fusions
	pc.Engine.FusedLayers = fused
	return PassStats{LayersFused: fused}, nil
}

type calibrationPass struct{}

func (calibrationPass) Name() string { return PassInt8Calibration }

func (calibrationPass) Run(pc *PassContext) (PassStats, error) {
	g := pc.Engine.Graph
	// INT8 builds calibrate activation ranges on the still-FP32 fused
	// graph before weights are quantized; other precisions skip.
	if pc.Cfg.Precision != tensor.INT8 || !hasWeights(g) {
		return PassStats{}, nil
	}
	if pc.Cfg.Calibrator == nil {
		return PassStats{}, fmt.Errorf("core: INT8 build of %s requires a Calibrator", pc.Engine.ModelName)
	}
	ranges, err := pc.Cfg.Calibrator.Ranges(g)
	if err != nil {
		return PassStats{}, err
	}
	pc.Int8Ranges = ranges
	pc.Engine.Int8Ranges = ranges
	return PassStats{LayersCalibrated: len(ranges)}, nil
}

type quantizePass struct{}

func (quantizePass) Name() string { return PassQuantization }

func (quantizePass) Run(pc *PassContext) (PassStats, error) {
	n := quantizeWeights(pc.Engine.Graph, pc.Cfg.Precision, pc.Cfg.PruneFrac)
	return PassStats{TensorsQuantized: n}, nil
}

type horizontalMergePass struct{}

func (horizontalMergePass) Name() string { return PassHorizontalMerge }

func (horizontalMergePass) Run(pc *PassContext) (PassStats, error) {
	leader, groups := horizontalGroups(pc.Engine.Graph)
	pc.MergeLeader, pc.MergeGroups = leader, groups
	return PassStats{MergeGroups: len(groups)}, nil
}

type kernelTuningPass struct{}

func (kernelTuningPass) Name() string { return PassKernelTuning }

func (kernelTuningPass) Run(pc *PassContext) (PassStats, error) {
	cfg := pc.Cfg
	e := pc.Engine
	dev := gpusim.NewDevice(cfg.Platform, cfg.ClockMHz)
	var stats PassStats
	tn := newTuner(dev, e, cfg, &stats)
	if err := planLaunches(e, tn, cfg, pc.MergeLeader, pc.MergeGroups); err != nil {
		return PassStats{}, err
	}
	stats.MergedLaunches = e.MergedLaunches
	return stats, nil
}
