package core

import (
	"errors"
	"fmt"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// ErrBudgetExhausted is the layer-boundary abort: InferBatchCtx returns
// it (wrapped, test with errors.Is) when the batch's charged schedule
// proves the request cannot answer inside its budget, so the caller can
// abandon mid-graph instead of finishing a pass nobody is waiting for.
var ErrBudgetExhausted = errors.New("core: request budget exhausted mid-graph")

// layerGuard is consulted at each layer boundary of the batched
// inference loop, before the layer executes. A non-nil error aborts the
// batch there. A nil guard is free: the hot path never pays for it.
type layerGuard func(li int, name string) error

// chargeLayers attributes each launch of the plan to the graph position
// of its charging layer: the last of its source layers, so a
// horizontally merged group charges when the group completes. Every
// launch of a built or admitted plan names layers of its graph (planlint
// rejects any other), so every launch is charged. Build and Load store it
// as Engine.charge, the one attribution LayerCostsSec reads.
func chargeLayers(e *Engine) []int {
	idx := layerIndex(e.Graph)
	charge := make([]int, len(e.Launches))
	for i, l := range e.Launches {
		charge[i] = idx[l.Layers[len(l.Layers)-1]]
	}
	return charge
}

// LayerCostsSec is the noise-free per-layer schedule on a device,
// indexed by graph position (the compiled step index): every launch's
// modeled time (with the steady-state overlap factor) plus launch
// overhead, added in launch order to its charging layer. Layers without
// a launch (inputs, folded ops) cost zero. The budget guard charges it,
// so admission math and the mid-graph abort agree on what a layer costs.
func (e *Engine) LayerCostsSec(dev *gpusim.Device) []float64 {
	costs := make([]float64, len(e.Graph.Layers))
	for i, li := range e.charge {
		costs[li] += e.Launches[i].Spec.TimeSec(dev)*overlapFactor + dev.LaunchOverheadSec()
	}
	return costs
}

// InferBatchCtx is batched numeric inference under a fault injector and
// a request context: the one inference path the serving tiers dispatch
// through. burnedSec is the simulated latency the request paid before
// this attempt (failed attempts, backoff); this attempt's own schedule
// is what the guard charges. When the context aborts
// (rtctx.Request.Aborts) and a device is supplied, each layer boundary
// charges the layer's modeled cost against the budget and aborts with a
// wrapped ErrBudgetExhausted once burned-plus-charged overruns it
// (rtctx.Request.Overran) — the batch
// stops mid-graph instead of completing an answer that can only be
// late. The charge uses the noise-free expected schedule, not the
// jittered run latency, so the abort is deterministic for a given
// engine and device.
//
// With a nil context, an unarmed one, or a nil device no guard is armed:
// same results, same injector draw order, no allocation added to the hot
// path. An empty batch returns (nil, nil); a nil input is an error.
func (e *Engine) InferBatchCtx(ctx *rtctx.Request, xs []*tensor.Tensor, fi FaultInjector, dev *gpusim.Device, burnedSec float64) ([][]*tensor.Tensor, error) {
	return e.execute(xs, execOpts{fi: fi, guard: e.budgetGuard(ctx, dev, burnedSec)})
}

// budgetGuard builds the layer-boundary charging guard InferBatchCtx
// arms: nil (free) unless the context aborts and a device prices the
// schedule.
func (e *Engine) budgetGuard(ctx *rtctx.Request, dev *gpusim.Device, burnedSec float64) layerGuard {
	if !ctx.Aborts() || dev == nil {
		return nil
	}
	costs := e.LayerCostsSec(dev)
	charged := burnedSec
	return func(li int, name string) error {
		charged += costs[li]
		if ctx.Overran(charged) {
			return fmt.Errorf("layer %d (%s) would end at %.3gs of a %.3gs budget: %w",
				li, name, charged, ctx.BudgetSec, ErrBudgetExhausted)
		}
		return nil
	}
}
