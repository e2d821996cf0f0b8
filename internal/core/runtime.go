package core

import (
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
// materialized weights) support this. A single image is a batch of one
// through the one interpreter loop (inferBatchRange) on a pristine
// device: no injector, no budget guard.
func (e *Engine) Infer(x *tensor.Tensor) ([]*tensor.Tensor, error) {
	outs, err := e.inferBatchRange([]*tensor.Tensor{x}, nil, nil, 0, -1, nil)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// convApply runs a conv layer with already-resolved (possibly corrupted)
// weights. The output and the INT8 fake-quant copy come from the arena;
// the quant copy goes back as soon as the kernel has consumed it.
func (e *Engine) convApply(l *graph.Layer, acts map[string]*tensor.Tensor, w, b *tensor.Tensor, ar *tensorArena) (*tensor.Tensor, error) {
	src := acts[l.Inputs[0]]
	in := e.quantInput(l.Inputs[0], acts, ar)
	v, ok := e.Choices[l.Name]
	if !ok {
		v = kernels.UnoptimizedConv()
	}
	f := e.Fusions[l.Name]
	// The kernel's fused epilogue handles plain ReLU; other activations
	// are applied after (still one launch — epilogue code).
	execV := v
	execV.FusedAct = f.Act == ActReLU
	var y *tensor.Tensor
	var err error
	if oh, ow, ok := convOutShape(in, l.Conv); ok {
		y = ar.get(in.N, l.Conv.OutC, oh, ow)
		if err = kernels.ExecConvInto(execV, in, w, b, l.Conv, y); err != nil {
			ar.put(y)
			y = nil
		}
	} else {
		// Degenerate geometry: let the validating path produce the
		// canonical error (it cannot succeed).
		y, err = kernels.ExecConv(execV, in, w, b, l.Conv)
	}
	if in != src {
		ar.put(in)
	}
	if err != nil {
		return nil, err
	}
	out := applyEpilogue(y, f)
	if out != y {
		ar.put(y)
	}
	return out, nil
}

// convOutShape sizes a conv output, reporting false for degenerate
// parameters (which the exec path rejects with the canonical error).
func convOutShape(in *tensor.Tensor, p tensor.ConvParams) (oh, ow int, ok bool) {
	if in == nil || p.Kernel < 1 || p.Stride < 1 || p.Pad < 0 || p.OutC < 1 {
		return 0, 0, false
	}
	oh = tensor.ConvOutDim(in.H, p.Kernel, p.Stride, p.Pad)
	ow = tensor.ConvOutDim(in.W, p.Kernel, p.Stride, p.Pad)
	return oh, ow, oh >= 1 && ow >= 1
}

// fcApply runs an FC layer with already-resolved weights; see convApply.
func (e *Engine) fcApply(l *graph.Layer, acts map[string]*tensor.Tensor, w, b *tensor.Tensor, ar *tensorArena) (*tensor.Tensor, error) {
	src := acts[l.Inputs[0]]
	in := e.quantInput(l.Inputs[0], acts, ar)
	v, ok := e.Choices[l.Name]
	if !ok {
		v = kernels.Variant{Family: kernels.FamGEMM, TileM: 128, TileN: 64, TileK: 32, Precision: tensor.FP32}
	}
	f := e.Fusions[l.Name]
	execV := v
	execV.FusedAct = f.Act == ActReLU
	var y *tensor.Tensor
	var err error
	if in != nil && l.OutUnits >= 1 {
		y = ar.get(in.N, l.OutUnits, 1, 1)
		if err = kernels.ExecFCInto(execV, in, w, b, l.OutUnits, y); err != nil {
			ar.put(y)
			y = nil
		}
	} else {
		y, err = kernels.ExecFC(execV, in, w, b, l.OutUnits)
	}
	if in != src {
		ar.put(in)
	}
	if err != nil {
		return nil, err
	}
	out := applyEpilogue(y, f)
	if out != y {
		ar.put(y)
	}
	return out, nil
}

// quantInput applies INT8 fake-quantization to a kernel's input
// activation using the calibrated range of its producer layer. The
// quantized copy is drawn from the arena (every element is overwritten);
// the caller releases it once the kernel has consumed it.
func (e *Engine) quantInput(producer string, acts map[string]*tensor.Tensor, ar *tensorArena) *tensor.Tensor {
	in := acts[producer]
	if e.Precision != tensor.INT8 || e.Int8Ranges == nil || in == nil {
		return in
	}
	rangeMax := e.Int8Ranges[producer]
	if rangeMax <= 0 {
		return in
	}
	scale := rangeMax / 127
	out := ar.get(in.N, in.C, in.H, in.W)
	for i, v := range in.Data {
		out.Data[i] = tensor.DequantizeINT8(tensor.QuantizeINT8(v, scale), scale)
	}
	return out
}

// applyEpilogue applies non-ReLU fused activations.
func applyEpilogue(y *tensor.Tensor, f Fusion) *tensor.Tensor {
	switch f.Act {
	case ActLeaky:
		return tensor.LeakyReLU(y, f.LeakyAlpha)
	case ActSigmoid:
		return tensor.Sigmoid(y)
	default:
		return y
	}
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

// UnoptimizedInfer runs the un-optimized model numerically: the FP32
// reference executor on the original (uncompressed, unpruned) graph.
func UnoptimizedInfer(g *graph.Graph, x *tensor.Tensor) ([]*tensor.Tensor, error) {
	return g.Execute(x)
}
