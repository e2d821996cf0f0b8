// Package serve answers inference requests from built engines once the
// device stops being pristine. It has one server, the Pool: a fleet of
// independently built replicas of one model (the paper's Findings 2 and
// 6: such builds genuinely diverge) that runs every active replica on
// each batch, votes on their argmaxes, supervises each replica's health
// and rebuilds the sick ones through the Registry's shared timing cache.
// A fleet of one is the plain resilient server: its one replica answers,
// and when it cannot the batch degrades to the FP32 reference path
//
//	replicas  →  FP32 reference path
//
// The final tier runs the un-optimized model on the host (priced by
// core.UnoptimizedRun, computed by a core.Reference compiled on first
// use), which the accelerator fault plan cannot touch, so a pool answers
// every request — at degraded latency and baseline accuracy — even under
// a 100%-fault plan, unless an aborting request context abandons it.
//
// The one entry point is Pool.DoBatchCtx (batch.go); a single request is
// a batch of one. It takes a request context whose budget is the
// request's only deadline (nil = none).
package serve

import (
	"errors"
	"sync"

	"edgeinfer/internal/core"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// ErrDeadlineExceeded is the typed deadline error: Pool.DoBatchCtx
// returns it (wrapped, test with errors.Is) under an aborting request
// context (rtctx.Request.Aborts) when the deadline expires — or the
// layer-boundary guard proves it must — before any tier has produced an
// answer, so a serving front-end can map deadline misses to a distinct
// status code and metric instead of string-matching. Without an
// aborting context — nil, or a budget that only records misses — it is
// never returned, and the answer-late-rather-than-never contract holds.
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// Allocator is the memory-pressure admission interface
// (faults.Injector implements it). Alloc reserves a replica attempt's
// per-thread footprint; Free releases it.
type Allocator interface {
	Alloc(bytes float64) error
	Free(bytes float64)
}

// reference is the FP32 tier: the pristine fallback graph, compiled onto
// the engine schedule (core.Reference) the first time a request reaches
// the tier, and its price. A pool that never degrades never compiles
// it; one that does replays it without allocating per layer.
type reference struct {
	g *graph.Graph
	// sec is one image's pass on the serving device (core.UnoptimizedRun):
	// the host path has no batched kernels, so every image pays it.
	sec  float64
	once sync.Once
	e    *core.Engine
	err  error
}

// infer runs one image through the reference.
func (r *reference) infer(x *tensor.Tensor) ([]*tensor.Tensor, error) {
	r.once.Do(func() { r.e, r.err = core.Reference(r.g) })
	if r.err != nil {
		return nil, r.err
	}
	return r.e.Infer(x)
}
