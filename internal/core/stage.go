package core

import (
	"fmt"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// Stage-ranged execution: internal/cluster slices an engine's layer
// plan into contiguous stages and runs each stage on a different
// simulated node, streaming the single boundary activation between
// them. The APIs here expose what the partitioner needs beside the
// per-layer schedule (LayerCostsSec, budget.go) — the legal cut
// positions and the bytes a cut moves or a stage holds — plus
// InferRangeCtx, the stage analogue of InferBatchCtx.

// StageCuts returns the valid pipeline cut positions of the engine's
// layer graph, ascending. A cut at position c splits the plan into
// layers [0,c) and [c,n): it is valid when the only value crossing the
// boundary is the single activation produced by layer c-1 — every
// earlier layer's activation is fully consumed before the cut (no
// skip connection spans it), and no graph output lives in the front
// half. Cuts whose boundary layer is an input are excluded: a front
// stage that does no compute is not a stage. Chained stage runs over
// consecutive cuts reproduce Infer bit-for-bit (the per-image numeric
// path is unchanged; the boundary activation is handed over in a tensor
// of its own instead of a context slot).
func (e *Engine) StageCuts() []int {
	g := e.Graph
	if g == nil {
		return nil
	}
	n := len(g.Layers)
	idx := layerIndex(g)
	// lastUse[i] is the last layer index reading layer i's activation.
	lastUse := make([]int, n)
	for i := range lastUse {
		lastUse[i] = i
	}
	for i, l := range g.Layers {
		for _, in := range l.Inputs {
			if j, ok := idx[in]; ok && i > lastUse[j] {
				lastUse[j] = i
			}
		}
	}
	firstOut := n
	for _, o := range g.Outputs {
		if j, ok := idx[o]; ok && j < firstOut {
			firstOut = j
		}
	}
	var cuts []int
	maxUse := -1 // max lastUse over layers [0, c-2]
	for c := 1; c < n; c++ {
		if c >= 2 && lastUse[c-2] > maxUse {
			maxUse = lastUse[c-2]
		}
		if maxUse > c-1 { // a non-boundary activation crosses the cut
			continue
		}
		if firstOut < c { // a graph output would be stranded up front
			continue
		}
		if g.Layers[c-1].Op == graph.OpInput {
			continue
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// BoundaryBytes returns the activation bytes one frame moves across cut
// position c: the FP32 size of layer c-1's output tensor. This is the
// per-frame payload the partitioner prices against link bandwidth.
func (e *Engine) BoundaryBytes(c int) int64 {
	g := e.Graph
	if g == nil || c < 1 || c >= len(g.Layers) {
		return 0
	}
	s := g.Layers[c-1].OutShape
	return int64(s[0]) * int64(s[1]) * int64(s[2]) * int64(s[3]) * 4
}

// StageWeightBytes returns the weight bytes a node running layers
// [from,to) must hold resident: every launch whose charging layer (the
// last of its source layers, matching LayerCostsSec attribution) falls
// inside the range. The partitioner checks it against each node's
// memory capacity.
func (e *Engine) StageWeightBytes(from, to int) int64 {
	var total int64
	for i, li := range e.charge {
		if li >= from && li < to {
			total += e.Launches[i].Spec.WeightBytes
		}
	}
	return total
}

// InferRangeCtx runs layers [from,to) of the graph over a batch of
// per-stage inputs: the graph inputs when from==0, otherwise each x is
// the boundary activation produced by layer from-1 as returned by the
// upstream stage. It returns one tensor slice per input — the graph
// outputs when to reaches the end of the plan, else the single
// boundary activation of layer to-1 for the next stage. from and to
// must be 0, len(Layers), or positions StageCuts would bless; chained
// stages otherwise lose a crossing activation and fail on the missing
// name. Budget accounting matches InferBatchCtx: when the context
// aborts and a device is supplied, only this range's layers are
// charged on top of burnedSec, so a downstream stage prices its own
// slice against what the frame has already burned upstream.
func (e *Engine) InferRangeCtx(ctx *rtctx.Request, xs []*tensor.Tensor, from, to int, fi FaultInjector, dev *gpusim.Device, burnedSec float64) ([][]*tensor.Tensor, error) {
	g := e.Graph
	if g == nil || from < 0 || from >= to || to > len(g.Layers) {
		n := 0
		if g != nil {
			n = len(g.Layers)
		}
		return nil, fmt.Errorf("core: infer range %s: bad layer range [%d,%d) of %d", e.Key(), from, to, n)
	}
	return e.execute(xs, execOpts{fi: fi, guard: e.budgetGuard(ctx, dev, burnedSec), from: from, to: to})
}
