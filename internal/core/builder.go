package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// BuildConfig parameterizes engine building.
type BuildConfig struct {
	// Platform is the device the engine is built on. Tactic timing runs
	// on this platform, so engines are platform-specific — NVIDIA
	// recommends building where you run (paper §IV-C).
	Platform gpusim.DeviceSpec
	// ClockMHz is the GPU clock during tactic timing (0 = max).
	ClockMHz float64
	// Precision selects the quantization target; the default is FP16,
	// matching the paper's engines.
	Precision tensor.Precision
	// BuildID distinguishes repeated builds of the same model: it seeds
	// the tuner's measurement noise, so different IDs reproduce the
	// paper's build-to-build non-determinism deterministically.
	BuildID int
	// TunerNoise is the relative sigma of tactic timing measurement
	// noise. Zero disables it (ablation: all non-determinism vanishes).
	// The default 0.08 reflects observed kernel-timing jitter on Jetson.
	TunerNoise float64
	// PruneFrac is the magnitude-pruning threshold as a fraction of each
	// weight tensor's RMS (model compression). Zero disables pruning.
	PruneFrac float64
	// Calibrator supplies per-layer activation ranges for INT8 builds of
	// numeric graphs. Required when Precision is INT8 and the graph has
	// materialized weights; ignored otherwise.
	Calibrator Calibrator
	// TimingCache, when non-nil, is consulted before any tactic is timed
	// and populated with every measurement taken. Warm entries are
	// returned as-is (no re-timing, no fresh noise), so builds served
	// entirely from the cache are reproducible regardless of BuildID and
	// TunerNoise — the paper's §VI-A remedy as a mechanism. Nil keeps
	// today's per-build noisy timing exactly.
	TimingCache *TimingCache
	// Predictor, when non-nil, pre-prunes the tuner's candidate menu: all
	// candidates are ranked by predicted latency and only the best
	// predictTopK are actually timed on the device (MAPLE-Edge style).
	// Tactic choices are unchanged as long as the noisy winner ranks
	// inside the kept set — latpred.TestPrunedZooChoicesUnchanged pins
	// that zoo-wide. A layer falls back to full timing when any of its
	// candidates cannot be predicted (unknown family or the predictor's
	// own confidence gate), counted in PassStats.PredictorFallbacks.
	Predictor LatencyPredictor
	// CanonicalWarmID stamps BuildID 0 on engines whose every tactic
	// came from the timing cache (see BuildReport.WarmBuild): warm
	// rebuilds then serialize byte-identically. Off by default so that a
	// warm build keeps the build id it was asked for (rtexec -timingCache).
	CanonicalWarmID bool
	// DisablePasses names pipeline passes to skip (the Pass* constants).
	// Skipped passes appear in the BuildReport flagged Disabled.
	DisablePasses []string
}

// DefaultConfig returns the standard FP16 build configuration for a
// platform.
func DefaultConfig(spec gpusim.DeviceSpec, buildID int) BuildConfig {
	return BuildConfig{
		Platform:   spec,
		Precision:  tensor.FP16,
		BuildID:    buildID,
		TunerNoise: 0.08,
		PruneFrac:  0.60,
	}
}

// hasWeights reports whether any layer has materialized weight tensors.
func hasWeights(g *graph.Graph) bool {
	for _, l := range g.Layers {
		for _, w := range l.Weights {
			if w != nil {
				return true
			}
		}
	}
	return false
}

// LatencyPredictor estimates the noise-free device time of a candidate
// kernel launch without running it. Implementations live outside core
// (internal/latpred trains one from TimingCache entries); core only
// consumes the interface, keeping the builder free of the training
// machinery. PredictSec returns ok=false when it cannot predict the
// launch confidently — the tuner then falls back to timing the layer's
// full candidate menu.
type LatencyPredictor interface {
	PredictSec(dev *gpusim.Device, ls kernels.LaunchSpec) (secs float64, ok bool)
}

// predictTopK is the pruned tuner's kept-candidate count. It is chosen
// so that zoo-wide tactic choices match unpruned builds: the tuner's
// noise streams are pure functions of (engine, layer, candidate) —
// independent of which other candidates are timed — so pruning
// preserves the choice exactly when the noisy winner ranks inside the
// kept set. k=4 holds that across the 13-model zoo over the pinned
// build ids (latpred.TestPrunedZooChoicesUnchanged) while cutting the
// modeled tactic-timing cost by well over half.
const predictTopK = 4

// predictGuardBand widens the pruner's keep set past the top-k: any
// candidate predicted within this factor of the k-th kept is timed
// anyway. 1.3 ≈ exp(0.25), one multiple of the predictor's default
// residual gate — a candidate inside the band is statistically
// indistinguishable from the kept set, so skipping it could flip a
// tactic choice.
const predictGuardBand = 1.3

// tuner times kernel candidates on the build device with multiplicative
// log-normal measurement noise — the root cause of engine
// non-determinism. With a timing cache attached, cached measurements are
// reused instead of re-timed, which both removes the noise resample and
// skips the (simulated) cost of running the candidate on the device.
type tuner struct {
	dev    *gpusim.Device
	noise  *fixrand.Source
	sigma  float64
	devKey string       // platform@clock — the cache's device component
	cache  *TimingCache // nil: always measure
	stats  *PassStats   // kernel-tuning instrumentation sink
	pred   LatencyPredictor
}

// newTuner seeds the measurement-noise stream from the engine key, as
// the original monolithic Build did, and binds the timing cache.
func newTuner(dev *gpusim.Device, e *Engine, cfg BuildConfig, stats *PassStats) *tuner {
	return &tuner{
		dev:    dev,
		noise:  fixrand.NewKeyed(fmt.Sprintf("tuner/%s", e.Key())),
		sigma:  cfg.TunerNoise,
		devKey: fmt.Sprintf("%s@%.0fMHz", cfg.Platform.Short(), dev.ClockMHz),
		cache:  cfg.TimingCache,
		stats:  stats,
		pred:   cfg.Predictor,
	}
}

// Simulated cost of timing one tactic on the device: trtexec-style
// averaging iterations of the kernel itself plus per-candidate setup
// (allocation, cudaEventRecord, synchronization).
const (
	tuneItersPerTactic = 10
	tuneOverheadSec    = 100e-6
)

// measure returns the observed time of a launch: the timing-cache entry
// when one exists, else a fresh noisy measurement (inserted into the
// cache when one is attached). Two noise components model real tactic
// timing on a busy SoC: a per-(build, kernel-family) systematic bias —
// the thermal/clock state of the board during that build session skews
// whole tactic classes together — and per-(layer, symbol) jitter. The
// systematic part is what makes rebuilt engines differ *coherently* (one
// build shuns HMMA tiles everywhere), producing the paper's 10-35%
// engine-to-engine latency spreads.
//
// The cache key is appended into a stack buffer and the map indexed with
// string(b), which Go does without copying, so a hit allocates nothing;
// the key string itself is built only on a miss, to insert it.
func (t *tuner) measure(layer string, d kernels.ConvDims, ls kernels.LaunchSpec) float64 {
	var buf [timingKeyBuf]byte
	var ck []byte
	if t.cache != nil {
		ck = appendTimingKey(buf[:0], t.devKey, ls.V, d, ls.V.Precision)
		if obs, ok := t.cache.lookupBytes(ck); ok {
			// A cache hit is served, not timed: TacticsTimed counts only
			// measurements that actually ran on the (simulated) device.
			t.stats.CacheHits++
			return obs
		}
		t.stats.CacheMisses++
	}
	t.stats.TacticsTimed++
	base := ls.TimeSec(t.dev)
	t.stats.TuneCostSec += tuneItersPerTactic*base + tuneOverheadSec
	obs := base * t.noiseFactor(layer, ls)
	if t.cache != nil {
		t.cache.Insert(string(ck), obs)
	}
	return obs
}

// sysSigma is the per-build systematic tactic-timing bias.
const sysSigma = 0.10

// pickConv selects the fastest-measured conv variant for the dims.
func (t *tuner) pickConv(layer string, d kernels.ConvDims, prec tensor.Precision) (kernels.Variant, kernels.LaunchSpec) {
	return t.pick(layer, d, kernels.ConvCandidates(d, prec))
}

// pickGEMM selects the fastest-measured FC variant.
func (t *tuner) pickGEMM(layer string, d kernels.ConvDims, prec tensor.Precision) (kernels.Variant, kernels.LaunchSpec) {
	return t.pick(layer, d, kernels.GEMMCandidates(d, prec))
}

func (t *tuner) pick(layer string, d kernels.ConvDims, cands []kernels.Variant) (kernels.Variant, kernels.LaunchSpec) {
	t.stats.TacticsConsidered += len(cands)
	specs := make([]kernels.LaunchSpec, len(cands))
	for i, v := range cands {
		specs[i] = kernels.PlanConv(v, d)
	}
	keep := t.prune(layer, specs)
	best := math.Inf(1)
	var bv kernels.Variant
	var bs kernels.LaunchSpec
	for _, i := range keep {
		obs := t.measure(layer, d, specs[i])
		if obs < best {
			best, bv, bs = obs, cands[i], specs[i]
		}
	}
	return bv, bs
}

// prune ranks the layer's candidate launches by the time the tuner
// *would observe* for each — the predictor's base-latency estimate
// scaled by this build session's measurement-noise factor, which the
// tuner can reproduce exactly because its noise streams are pure
// functions of (engine, family, layer, symbol) — and returns the
// indices of the candidates to time, in original menu order (ties in
// later measurement resolve first-seen, as in the unpruned tuner).
// Ranking by observed rather than base time matters: the per-build
// systematic family bias (sysSigma) coherently reorders whole tactic
// classes, so a base-time ranking would need a far larger k to keep the
// noisy winner inside the kept set. Without a predictor — or when any candidate
// cannot be predicted confidently — the full menu is returned: a
// wrong-but-confident predictor can only reorder which tactics get
// timed, never invent a measurement, so the failure mode of a bad model
// is a slower build, not a different engine.
func (t *tuner) prune(layer string, specs []kernels.LaunchSpec) []int {
	all := make([]int, len(specs))
	for i := range specs {
		all[i] = i
	}
	if t.pred == nil || len(specs) <= predictTopK {
		return all
	}
	pred := make([]float64, len(specs))
	for i, ls := range specs {
		p, ok := t.pred.PredictSec(t.dev, ls)
		if !ok || !(p > 0) || math.IsInf(p, 0) {
			t.stats.PredictorFallbacks++
			return all
		}
		pred[i] = p * t.noiseFactor(layer, ls)
	}
	order := make([]int, len(specs))
	copy(order, all)
	sort.SliceStable(order, func(a, b int) bool { return pred[order[a]] < pred[order[b]] })
	// Keep the top-k, then widen by a guard band: any candidate whose
	// predicted-observed time sits within predictGuardBand of the k-th
	// kept is too close to call given the model's residual, so it gets
	// timed rather than trusted away. The band is what lets a small k
	// stay byte-identical: the true winner is only ever lost when the
	// model mis-ranks it *and* by a margin larger than its own error bar.
	cut := predictTopK
	limit := pred[order[predictTopK-1]] * predictGuardBand
	for cut < len(order) && pred[order[cut]] <= limit {
		cut++
	}
	keep := append([]int(nil), order[:cut]...)
	sort.Ints(keep) // restore menu order for tie-stability
	for _, i := range order[cut:] {
		t.stats.PredictedPrunes++
		// The saved cost is modeled from the predictor's own estimate of
		// the pruned candidate — computing the simulator's ground truth
		// here would amount to timing the tactic we just skipped.
		t.stats.PrunedTuneCostSavedSec += tuneItersPerTactic*pred[i] + tuneOverheadSec
	}
	return keep
}

// noiseFactor reproduces the multiplicative measurement-noise factor
// measure would apply to this candidate. Forking is a pure read of the
// seeded stream, so computing the factor here neither disturbs the
// tuner's noise state nor changes what measure later observes.
func (t *tuner) noiseFactor(layer string, ls kernels.LaunchSpec) float64 {
	if t.sigma <= 0 {
		return 1
	}
	sys := t.noise.Fork("family/", ls.V.Family.String()).NormFloat64()
	jit := t.noise.Fork(layer, "/", ls.Symbol).NormFloat64()
	return math.Exp(sysSigma*sys + t.sigma*jit)
}

// convDims extracts the implicit-GEMM dimensions of a conv layer.
func convDims(g *graph.Graph, l *graph.Layer) kernels.ConvDims {
	in := g.Layer(l.Inputs[0]).OutShape
	out := l.OutShape
	return kernels.ConvDims{
		Batch: in[0], InC: in[1], H: in[2], W: in[3],
		OutC: out[1], OutH: out[2], OutW: out[3],
		Kernel: l.Conv.Kernel, Stride: l.Conv.Stride, Groups: l.Conv.Groups,
	}
}

// fcDims extracts the GEMM dimensions of a fully-connected layer.
func fcDims(g *graph.Graph, l *graph.Layer) kernels.ConvDims {
	in := g.Layer(l.Inputs[0]).OutShape
	return kernels.ConvDims{
		Batch: in[0], InC: in[1] * in[2] * in[3], H: 1, W: 1,
		OutC: l.OutUnits, OutH: 1, OutW: 1, Kernel: 1, Stride: 1, Groups: 1,
	}
}

// planLaunches builds the ordered kernel plan: tuned tactics for conv/FC
// (with sibling 1x1 convolutions launched as the horizontal-merge pass's
// groups), and fixed kernels for everything else. Detection models get
// the cub radix-sort pair that ranks boxes before NMS. mergeLeader and
// mergeGroup come from the horizontal-merge pass; nil maps plan every
// layer individually.
func planLaunches(e *Engine, tn *tuner, cfg BuildConfig, mergeLeader map[string]string, mergeGroup map[string][]string) error {
	g := e.Graph
	planned := map[string]bool{}

	for _, l := range g.Layers {
		switch l.Op {
		case graph.OpInput, graph.OpFlatten, graph.OpDropout:
			continue

		case graph.OpConv:
			if planned[l.Name] {
				continue
			}
			group := []string{l.Name}
			if leader, ok := mergeLeader[l.Name]; ok {
				if leader != l.Name {
					continue // a later leader launch covers this layer
				}
				group = mergeGroup[l.Name]
			}
			d := convDims(g, l)
			if len(group) > 1 {
				// Merged launch: one kernel computes the concatenated
				// output channels of all group members.
				totalC := 0
				for _, name := range group {
					totalC += g.Layer(name).Conv.OutC
				}
				d.OutC = totalC
				e.MergedLaunches += len(group) - 1
			}
			v, ls := tn.pickConv(l.Name, d, cfg.Precision)
			for _, name := range group {
				e.Choices[name] = v
				planned[name] = true
			}
			e.Launches = append(e.Launches, Launch{Symbol: ls.Symbol, Layers: group, Spec: ls})

		case graph.OpFC:
			d := fcDims(g, l)
			v, ls := tn.pickGEMM(l.Name, d, cfg.Precision)
			e.Choices[l.Name] = v
			e.Launches = append(e.Launches, Launch{Symbol: ls.Symbol, Layers: []string{l.Name}, Spec: ls})

		default:
			ls, ok := simpleLaunch(g, l, cfg.Precision)
			if !ok {
				continue
			}
			e.Launches = append(e.Launches, Launch{Symbol: ls.Symbol, Layers: []string{l.Name}, Spec: ls})
		}
	}

	if g.Task == "detection" {
		// Output stage: segmented radix sort of candidate boxes (two cub
		// kernel launches, as nvprof shows for the paper's detectors).
		// Both name the outputs they rank, in graph order, so they charge
		// to the latest output.
		var boxes int64
		var outs []string
		for _, l := range g.Layers {
			if slices.Contains(g.Outputs, l.Name) {
				outs = append(outs, l.Name)
				boxes += int64(l.OutShape[1]) * int64(l.OutShape[2]) * int64(l.OutShape[3])
			}
		}
		if boxes > 0 {
			ls := kernels.PlanSort(boxes)
			e.Launches = append(e.Launches,
				Launch{Symbol: ls.Symbol + "1", Layers: outs, Spec: ls},
				Launch{Symbol: ls.Symbol + "2", Layers: outs, Spec: ls})
		}
	}
	return nil
}

// simpleLaunch prices the non-tuned ops.
func simpleLaunch(g *graph.Graph, l *graph.Layer, prec tensor.Precision) (kernels.LaunchSpec, bool) {
	out := l.OutShape
	outElems := int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(out[3])
	var inElems int64
	for _, in := range l.Inputs {
		s := g.Layer(in).OutShape
		inElems += int64(s[0]) * int64(s[1]) * int64(s[2]) * int64(s[3])
	}
	switch l.Op {
	case graph.OpMaxPool, graph.OpAvgPool, graph.OpGlobalAvgPool:
		k := int64(l.Pool.Kernel)
		if l.Op == graph.OpGlobalAvgPool {
			k = 1
		}
		return kernels.PlanSimple(kernels.FamPool, prec, inElems, outElems, k*k), true
	case graph.OpLRN:
		// Cross-channel LRN re-reads a (size+1)-wide channel window per
		// output — a notorious bandwidth hog (GoogLeNet/AlexNet norm
		// layers), visible in the paper's Table XI as lrnForward.
		return kernels.PlanSimple(kernels.FamLRN, prec, inElems*int64(l.LRNSize+1), outElems, int64(l.LRNSize)*4), true
	case graph.OpReLU, graph.OpLeakyReLU, graph.OpSigmoid, graph.OpBatchNorm, graph.OpScale:
		return kernels.PlanSimple(kernels.FamActivation, prec, inElems, outElems, 2), true
	case graph.OpAdd:
		return kernels.PlanSimple(kernels.FamEltwise, prec, inElems, outElems, 1), true
	case graph.OpConcat, graph.OpUpsample:
		return kernels.PlanSimple(kernels.FamCopy, prec, inElems, outElems, 0), true
	case graph.OpSoftmax:
		return kernels.PlanSimple(kernels.FamSoftmax, prec, inElems, outElems, 5), true
	default:
		return kernels.LaunchSpec{}, false
	}
}

// horizontalGroups finds sibling 1x1 convolutions sharing one input with
// identical stride/groups — TensorRT's horizontal merging (Figure 2,
// step 3). Returns a layer->leader map and leader->members map; members
// are ordered deterministically.
func horizontalGroups(g *graph.Graph) (map[string]string, map[string][]string) {
	leader := map[string]string{}
	groups := map[string][]string{}
	// One pass collects the candidates under their (single) input.
	byInput := map[string][]string{}
	for _, c := range g.Layers {
		if c.Op == graph.OpConv && c.Conv.Kernel == 1 && c.Conv.Stride == 1 &&
			(c.Conv.Groups <= 1) && len(c.Inputs) == 1 {
			byInput[c.Inputs[0]] = append(byInput[c.Inputs[0]], c.Name)
		}
	}
	for _, src := range g.Layers {
		sibs := byInput[src.Name]
		if len(sibs) < 2 {
			continue
		}
		sort.Strings(sibs)
		for _, s := range sibs {
			leader[s] = sibs[0]
		}
		groups[sibs[0]] = sibs
	}
	return leader, groups
}
