package core

import (
	"fmt"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// Numeric inference. inferBatchRange is the one interpreter loop: every
// numeric entry point — Infer (a batch of one on a pristine device),
// InferBatchCtx (the serving path) and InferRangeCtx (a pipeline stage)
// — is an adapter over it. It pipelines the layer plan across a batch of
// images: layers run in plan order, and within each layer every image
// executes back to back — the software analogue of one batched kernel
// launch. That keeps each layer's weights hot in cache across the whole
// batch, resolves kernel variants and fusion metadata once per layer
// instead of once per image, and (on the fault path) draws launch and
// weight-corruption verdicts once per layer, the way a single batched
// launch would fail or corrupt, while activation corruption still draws
// per image (each image's activation is a distinct tensor).
//
// Per-image numerics do not depend on the batch: each image's activations
// flow through the same convApply/fcApply/EvalLayer calls whatever rides
// beside it, so N batches of one are bit-identical to one batch of N.

// inferBatchRange runs the half-open layer range [from, to) over a batch,
// so a pipeline stage can run its slice of the graph on its own node
// (internal/cluster); from==0 with to<0 covers the whole graph. fi, when
// non-nil, is consulted per layer in the order Launch → CorruptWeights →
// CorruptActivation (once per image). guard, when non-nil, is consulted
// at each layer boundary before the layer's launch verdict; its error
// aborts the batch mid-graph without drawing for the aborted layer. A nil
// guard is free: no extra allocation. For from>0 each input tensor is
// bound as the boundary activation — the output of layer from-1 — so
// quantInput and consumer lookups resolve it by the producer's name.
// outNames, when non-nil, overrides the graph outputs as both the
// returned tensors and the arena keep set; stage callers pass the
// boundary layer's name so the hand-off tensor survives release.
//
//rt:hotpath
func (e *Engine) inferBatchRange(xs []*tensor.Tensor, fi FaultInjector, guard layerGuard, from, to int, outNames []string) ([][]*tensor.Tensor, error) {
	if !e.Numeric {
		return nil, fmt.Errorf("core: engine %s is timing-only (no weights materialized)", e.Key())
	}
	if len(xs) == 0 {
		return nil, nil
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("core: infer batch %s: input %d is nil", e.Key(), i)
		}
	}
	g := e.Graph
	if to < 0 {
		to = len(g.Layers)
	}
	if from < 0 || from > to || to > len(g.Layers) {
		return nil, fmt.Errorf("core: infer %s: bad layer range [%d,%d) of %d", e.Key(), from, to, len(g.Layers))
	}
	if outNames == nil {
		outNames = g.Outputs
	}
	ar := e.bufArena()
	bs := batchScratchPool.Get().(*batchScratch)
	acts := bs.actMaps(len(xs))
	owned := bs.ownedBuf()
	defer func() {
		keep := bs.keepSet()
		for _, x := range xs {
			keep[x] = true
		}
		for _, am := range acts {
			for _, name := range outNames {
				keep[am[name]] = true
			}
		}
		ar.releaseActs(owned, keep)
		bs.release(owned)
	}()
	if from > 0 {
		bname := g.Layers[from-1].Name
		for img, x := range xs {
			acts[img][bname] = x
		}
	}
	for li := from; li < to; li++ {
		l := g.Layers[li]
		if guard != nil && l.Op != graph.OpInput {
			if err := guard(li, l.Name); err != nil {
				return nil, fmt.Errorf("core: infer %s: %w", e.Key(), err)
			}
		}
		if fi != nil && l.Op != graph.OpInput {
			if lf := fi.Launch(li, l.Name); lf.Fail {
				return nil, fmt.Errorf("core: infer %s layer %s: %w", e.Key(), l.Name, ErrLaunchFailed)
			}
		}
		isConv := l.Op == graph.OpConv
		isFC := l.Op == graph.OpFC
		var w, b *tensor.Tensor
		if isConv || isFC {
			w, b = l.Weights["w"], l.Weights["b"]
			if w == nil {
				kind := "conv"
				if isFC {
					kind = "fc"
				}
				return nil, fmt.Errorf("core: infer %s layer %s: %s %s has no weights", e.Key(), l.Name, kind, l.Name)
			}
			if fi != nil {
				w = fi.CorruptWeights(l.Name, "w", w)
			}
		}
		for img, x := range xs {
			var y *tensor.Tensor
			var err error
			switch {
			case l.Op == graph.OpInput:
				y = x
			case isConv:
				y, err = e.convApply(l, acts[img], w, b, ar)
			case isFC:
				y, err = e.fcApply(l, acts[img], w, b, ar)
			default:
				ins := bs.inputs(len(l.Inputs))
				for i, name := range l.Inputs {
					ins[i] = acts[img][name]
				}
				y, err = graph.EvalLayer(l, ins)
			}
			if err != nil {
				return nil, fmt.Errorf("core: infer %s layer %s: %w", e.Key(), l.Name, err)
			}
			if fi != nil && l.Op != graph.OpInput && y != x {
				fi.CorruptActivation(l.Name, y)
			}
			acts[img][l.Name] = y
			if l.Op != graph.OpInput {
				owned = append(owned, y)
			}
		}
	}
	outs := make([][]*tensor.Tensor, len(xs))
	for img := range xs {
		outs[img] = make([]*tensor.Tensor, len(outNames))
		for i, name := range outNames {
			outs[img][i] = acts[img][name]
		}
	}
	return outs, nil
}
