package core

import (
	"fmt"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// RunConfig parameterizes a timed engine execution.
type RunConfig struct {
	// Device is the platform (and clock) the engine runs on — not
	// necessarily the one it was built on (paper's cNX_rAGX etc.).
	Device *gpusim.Device
	// IncludeMemcpy copies the engine weights host-to-device as part of
	// the measured run, as the paper's methodology does (Table VIII); set
	// false to reproduce the "CUDA memcpy excluded" columns of Table X.
	IncludeMemcpy bool
	// Profile attaches the nvprof-like profiler: per-launch
	// instrumentation cost and serialization of concurrent kernels.
	Profile bool
	// RunIndex seeds per-run jitter (the paper reports mean/std over 10
	// runs).
	RunIndex int
}

// KernelInvocation is one executed kernel, as the profiler records it.
type KernelInvocation struct {
	Symbol string
	Layers []string
	DurSec float64
}

// RunResult is the outcome of one timed inference.
type RunResult struct {
	LatencySec float64
	MemcpySec  float64
	Kernels    []KernelInvocation
}

// Per-launch host cost and profiler cost. Launch overhead is CPU-side
// work per kernel submission; the profiler adds instrumentation per
// launch and prevents inter-kernel overlap (without it, back-to-back
// kernels overlap their tails slightly).
const (
	profPerLaunchSec = 60e-6
	overlapFactor    = 0.88
	profSerialFactor = 1.05
	runJitterSigma   = 0.02
)

// Run executes the engine plan on a device and returns the simulated
// latency with a per-kernel trace. Deterministic given the engine key,
// device, and RunIndex. It is RunFaulty on a pristine device (no
// injector), which cannot fail.
func (e *Engine) Run(cfg RunConfig) RunResult {
	res, err := e.RunFaulty(cfg, nil)
	if err != nil {
		// Unreachable: every fault path requires a non-nil injector.
		panic(err)
	}
	return res
}

// ExpectedLatencySec is the noise-free center of Run's jittered latency
// on a device: per-launch model time with the steady-state overlap
// factor plus launch overhead, and the H2D weight copy when
// includeMemcpy is set. The serving layer's latency watchdog compares
// observed RunFaulty latencies against this expectation — a sustained
// ratio well above 1 means the replica, not the request, is sick.
func (e *Engine) ExpectedLatencySec(dev *gpusim.Device, includeMemcpy bool) float64 {
	var total float64
	if includeMemcpy {
		total += dev.MemcpyH2DSec(e.WeightBytes(), e.WeightChunks())
	}
	for _, l := range e.Launches {
		total += l.Spec.TimeSec(dev)*overlapFactor + dev.LaunchOverheadSec()
	}
	return total
}

// GPUTimeSec returns the pure GPU-resident time of one inference on a
// device (no memcpy, no profiler, no host gaps): the per-frame GPU cost
// used by the concurrency model.
func (e *Engine) GPUTimeSec(dev *gpusim.Device) float64 {
	var total float64
	for _, l := range e.Launches {
		total += l.Spec.TimeSec(dev) * overlapFactor
	}
	return total
}

// DRAMBytesPerFrame estimates the steady-state DRAM traffic of one
// inference under concurrency: weights are mostly L2/texture-resident
// (shared by every stream running the same engine), and fused producer-
// consumer conv chains keep most activations on chip; bandwidth-hungry
// layers without that locality (LRN, pooling, copies) pay full price.
func (e *Engine) DRAMBytesPerFrame() float64 {
	const (
		weightResidency = 0.15 // fraction of weights re-fetched per frame
		convActLocality = 0.08 // conv activations actually crossing DRAM
		miscLocality    = 0.20 // pooling/LRN/copy traffic surviving the L2
	)
	var total float64
	for _, l := range e.Launches {
		acts := float64(l.Spec.MemBytes - l.Spec.WeightBytes)
		switch l.Spec.V.Family {
		case kernels.FamHMMAConv, kernels.FamWinograd, kernels.FamCUDAConv,
			kernels.FamGEMM, kernels.FamDepthwise:
			total += float64(l.Spec.WeightBytes)*weightResidency + acts*convActLocality
		default:
			total += acts * miscLocality
		}
	}
	return total
}

// PerThreadMemBytes is the RAM footprint of one concurrent inference
// thread: a per-stream base allocation (CUDA stream state, staging
// buffers) plus a per-kernel workspace binding.
func (e *Engine) PerThreadMemBytes() float64 {
	const (
		perStreamBase    = 112e6
		perLaunchWorkspc = 2.85e6
	)
	return perStreamBase + float64(len(e.Launches))*perLaunchWorkspc
}

// hostPerFrameSec is the serialized host-side cost per frame: kernel
// submission for each launch plus fixed pre/post-processing.
func (e *Engine) hostPerFrameSec(dev *gpusim.Device) float64 {
	const fixedHost = 2.2e-3
	return fixedHost + float64(len(e.Launches))*dev.LaunchOverheadSec()
}

// StreamLoad derives the concurrency-model load of this engine on a
// device (paper Figures 3-4).
func (e *Engine) StreamLoad(dev *gpusim.Device) gpusim.StreamLoad {
	return gpusim.StreamLoad{
		PerFrameGPUSec:    e.GPUTimeSec(dev),
		PerFrameHostSec:   e.hostPerFrameSec(dev),
		PerFrameDRAMBytes: e.DRAMBytesPerFrame(),
		PerThreadMemBytes: e.PerThreadMemBytes(),
		LaunchCount:       len(e.Launches),
	}
}

// Infer runs the engine numerically on one input tensor, using each
// layer's selected kernel variant so that accumulation order and rounding
// match the tuned plan. Only numeric engines (built from proxies with
// materialized weights) support this. It is a batch of one through
// execute on a pristine device; the returned tensors are the caller's.
func (e *Engine) Infer(x *tensor.Tensor) ([]*tensor.Tensor, error) {
	outs, err := e.execute([]*tensor.Tensor{x}, execOpts{})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// --- un-optimized baseline -------------------------------------------------

// UnoptimizedRun prices one inference of the un-optimized model: the
// training framework's GPU path — FP32 generic kernels, one per layer, no
// fusion, framework dispatch and synchronization between layers. This is
// the baseline of the paper's Tables III, IV and VII.
func UnoptimizedRun(g *graph.Graph, dev *gpusim.Device) float64 {
	// The framework's direct FP32 kernels reach a small fraction of the
	// tactic-tuned library's efficiency, and every layer pays a dispatch
	// + synchronization cost on the host.
	const (
		frameworkSlowdown = 4.5
		perLayerSyncSec   = 1.2e-3
	)
	var total float64
	layers := 0
	for _, l := range g.Layers {
		if l.Op == graph.OpInput {
			continue
		}
		layers++
		switch l.Op {
		case graph.OpConv:
			d := convDims(g, l)
			ls := kernels.PlanConv(kernels.UnoptimizedConv(), d)
			total += ls.TimeSec(dev) * frameworkSlowdown
		case graph.OpFC:
			d := fcDims(g, l)
			v := kernels.Variant{Family: kernels.FamGEMM, TileM: 128, TileN: 64, TileK: 32, Precision: tensor.FP32}
			ls := kernels.PlanConv(v, d)
			total += ls.TimeSec(dev) * frameworkSlowdown
		default:
			if ls, ok := simpleLaunch(g, l, tensor.FP32); ok {
				total += ls.TimeSec(dev) * frameworkSlowdown
			}
		}
	}
	return total + float64(layers)*perLayerSyncSec
}

// UnoptimizedInfer runs the un-optimized model numerically on one image:
// a Reference compiled for the call. A caller with more than one image
// holds a Reference and replays it.
func UnoptimizedInfer(g *graph.Graph, x *tensor.Tensor) ([]*tensor.Tensor, error) {
	r, err := Reference(g)
	if err != nil {
		return nil, err
	}
	return r.Infer(x)
}

// Reference compiles g, un-built, onto the engine schedule: the FP32
// reference executor of the paper's un-optimized baseline (Tables III,
// IV and VII) on a built engine's liveness-planned slots, execution
// contexts and escaping outputs. Every step is marked as the
// reference's, so conv and fc run graph.EvalLayerInto's reference
// operators like every other op and the outputs are g.Execute's bit for
// bit; an input whose shape is not g.InputShape is an error, as there.
// The reference is outside the accelerator fault domain: an injector
// passed to InferBatchCtx sees every layer, but its weight corruption
// does not reach conv or fc, which read the layer's own weights. g must
// be finalized and must not change while the reference is in use. A
// reference is never the same numeric program as a built engine.
func Reference(g *graph.Graph) (*Engine, error) {
	if g == nil || !g.Finalized() {
		return nil, fmt.Errorf("core: reference of a graph that is not finalized")
	}
	e := &Engine{ModelName: g.Name, Platform: "host", Precision: tensor.FP32, Graph: g, Numeric: true}
	e.plan = compile(e)
	for i := range e.plan.steps {
		e.plan.steps[i].ref = true
	}
	return e, nil
}
