// Package core implements the inference-engine builder and runtime that
// the paper characterizes: the analogue of TensorRT. Building an engine
// runs the optimization pipeline of the paper's Figure 2 —
//
//  1. dead-layer removal
//  2. vertical fusion (conv+BN+activation into one kernel)
//  3. horizontal merging (sibling 1x1 convolutions into one launch)
//  4. quantization (FP32 -> FP16/INT8, with magnitude pruning)
//  5. kernel mapping (timing-based tactic selection on the device)
//
// Step 5 times candidate kernels on the (simulated) device under
// measurement noise, so engine generation is deliberately
// non-deterministic across builds — exactly the behaviour the paper
// observes (Findings 2 and 6). Determinism is recovered for experiments
// by seeding the noise with (model, platform, build-id).
//
// The runtime replays what the build resolved: a numeric engine is
// compiled once, at the end of Build or Load, into a flat schedule with
// planned activation memory (schedule.go), and Infer and InferBatchCtx
// execute it in per-image execution contexts.
package core

import (
	"fmt"
	"sync/atomic"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// ActKind is the activation fused into a kernel epilogue.
type ActKind uint8

const (
	ActNone ActKind = iota
	ActReLU
	ActLeaky
	ActSigmoid
)

// Fusion records what vertical fusion folded into a primary layer.
type Fusion struct {
	Act        ActKind
	LeakyAlpha float32
	FoldedBN   bool     // batch-norm folded into conv weights
	Absorbed   []string // names of removed layers
}

// Launch is one kernel invocation in the engine's execution plan.
type Launch struct {
	Symbol string   // kernel symbol, as nvprof would report it
	Layers []string // source layers (horizontal merges carry several)
	Spec   kernels.LaunchSpec
}

// Engine is a built, serializable inference engine: the analogue of a
// TensorRT plan file.
type Engine struct {
	ModelName string
	Platform  string // short name of the build platform ("NX"/"AGX")
	BuildID   int
	Precision tensor.Precision

	// Graph is the optimized network (dead layers removed, fused layers
	// spliced out). For numeric engines its weights are quantized and
	// BN-folded.
	Graph *graph.Graph

	// Choices maps conv/FC layer names to the tuner-selected variant.
	// Horizontally merged layers map to the same variant.
	Choices map[string]kernels.Variant

	// Fusions records vertical-fusion metadata per primary layer.
	Fusions map[string]Fusion

	// Int8Ranges holds calibrated per-layer activation ranges for INT8
	// engines (nil otherwise).
	Int8Ranges map[string]float32

	// Launches is the ordered kernel plan.
	Launches []Launch

	// Numeric reports whether weight tensors are materialized (numeric
	// proxies) or the engine is timing-only (full-scale models).
	Numeric bool

	// stats from the build, for reporting.
	RemovedLayers  int
	FusedLayers    int
	MergedLaunches int

	// Report is the per-pass build instrumentation. Build always sets
	// it; a plan carries it, or its absence, as saved.
	Report *BuildReport

	// plan is the compiled schedule numeric inference replays, with its
	// execution contexts (schedule.go): derived by Build and Load from the
	// fields above, never serialized, nil on timing-only engines.
	plan *schedule
	// charge[i] is the graph position Launches[i] is attributed to
	// (chargeLayers, budget.go): derived by Build and Load, never
	// serialized.
	charge []int
	// guardCosts is the budget guard's LayerCostsSec table for the last
	// device it priced (guardCostsSec, budget.go): the plan is immutable,
	// so one table serves every armed call on that device.
	guardCosts atomic.Pointer[deviceCosts]
}

// WeightBytes returns the total engine-resident weight size in bytes.
func (e *Engine) WeightBytes() int64 {
	var total int64
	for _, l := range e.Launches {
		total += l.Spec.WeightBytes
	}
	return total
}

// WeightChunks returns the number of weight bindings the runtime copies
// host-to-device (one per weight-carrying launch) — the chunk count of
// the memcpy model.
func (e *Engine) WeightChunks() int {
	n := 0
	for _, l := range e.Launches {
		if l.Spec.WeightBytes > 0 {
			n++
		}
	}
	return n
}

// KernelCounts returns how many times each kernel symbol appears in the
// plan (the paper's Table XIII counts invocations of one symbol across
// engines).
func (e *Engine) KernelCounts() map[string]int {
	m := map[string]int{}
	for _, l := range e.Launches {
		m[l.Symbol]++
	}
	return m
}

// Key identifies the engine build for seeding purposes.
func (e *Engine) Key() string {
	return fmt.Sprintf("%s/%s/build%d", e.ModelName, e.Platform, e.BuildID)
}

// cubinBytes is the serialized kernel-binary cost per distinct tactic
// family/tile — TensorRT plans embed the CUBIN of every selected tactic,
// which is why a 1.9 MB model (MTCNN) can produce a 3.8 MB engine.
func cubinBytes(v kernels.Variant) int64 {
	switch v.Family {
	case kernels.FamWinograd:
		return 1_400_000
	case kernels.FamHMMAConv:
		return 180_000
	case kernels.FamCUDAConv:
		return 120_000
	case kernels.FamGEMM:
		return 200_000
	case kernels.FamDepthwise:
		return 60_000
	default:
		return 24_000
	}
}

// SizeBytes returns the serialized engine size: quantized weights plus
// one embedded kernel binary per distinct symbol plus a fixed header.
// Sub-network cascades (MTCNN) pay the header once per stage.
func (e *Engine) SizeBytes() int64 {
	const header = 950_000
	total := e.WeightBytes()
	seen := map[string]bool{}
	for _, l := range e.Launches {
		if !seen[l.Symbol] {
			seen[l.Symbol] = true
			total += cubinBytes(l.Spec.V)
		}
	}
	stages := int64(1)
	if e.ModelName == "mtcnn" {
		stages = 3 // P-Net, R-Net, O-Net build separate engines
	}
	return total + header*stages
}
