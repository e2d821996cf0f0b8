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
// this attempt; this attempt's own schedule is what the guard charges. When the context aborts
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
	if !ctx.Aborts() || dev == nil {
		return e.execute(xs, fi, nil)
	}
	g := budgetGuard{ctx: ctx, costs: e.guardCostsSec(dev), charged: burnedSec}
	return e.execute(xs, fi, &g)
}

// budgetGuard is the layer-boundary charging guard InferBatchCtx arms
// when the context aborts and a device prices the schedule; execute
// consults it at each layer boundary, before the layer runs, and an
// error aborts the batch there. It lives on InferBatchCtx's stack, so
// arming it allocates nothing.
type budgetGuard struct {
	ctx     *rtctx.Request
	costs   []float64 // guardCostsSec on the serving device
	charged float64   // burned latency plus every layer charged so far
}

// charge is the guard: it adds layer li's cost and fails once the
// running total overruns the budget.
func (b *budgetGuard) charge(li int, name string) error {
	b.charged += b.costs[li]
	if b.ctx.Overran(b.charged) {
		return fmt.Errorf("layer %d (%s) would end at %.3gs of a %.3gs budget: %w",
			li, name, b.charged, b.ctx.BudgetSec, ErrBudgetExhausted)
	}
	return nil
}

// deviceCosts is one device's LayerCostsSec table.
type deviceCosts struct {
	dev gpusim.Device
	sec []float64
}

// guardCostsSec is LayerCostsSec for the budget guard, computed once per
// engine and device rather than on every armed call. The cache holds the
// last device priced, compared by value; concurrent misses compute
// identical tables, so whichever store lands is right. The table is
// shared: callers only read it.
func (e *Engine) guardCostsSec(dev *gpusim.Device) []float64 {
	if c := e.guardCosts.Load(); c != nil && c.dev == *dev {
		return c.sec
	}
	c := &deviceCosts{dev: *dev, sec: e.LayerCostsSec(dev)}
	e.guardCosts.Store(c)
	return c.sec
}
