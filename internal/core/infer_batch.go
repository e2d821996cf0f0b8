package core

import (
	"fmt"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// Numeric inference. execute is the one loop over the compiled schedule
// (schedule.go); Infer (a batch of one on a pristine device) and
// InferBatchCtx (the serving path) are adapters over it. Steps run in
// plan order and within a step every image executes back to back — the
// software analogue of one batched kernel launch: a layer's weights stay
// hot across the batch, and on the fault path launch and
// weight-corruption verdicts are drawn once per layer, the way one
// batched launch fails or corrupts, while activation corruption draws
// per image. Each image runs in its own execution
// context, so N batches of one are bit-identical to one batch of N.

// execOpts is what an entry point asks of execute beyond the inputs.
type execOpts struct {
	// fi, when non-nil, is consulted per step in the order Launch →
	// CorruptWeights → CorruptActivation (once per image).
	fi FaultInjector
	// guard, when non-nil, is consulted before each step's launch
	// verdict; its error aborts the batch mid-graph without a draw for
	// the aborted step. A nil guard is free.
	guard layerGuard
}

// execute runs the schedule over a batch. Everything it returns is the
// caller's: graph outputs are written to fresh tensors, never to a
// context slot.
//
//rt:hotpath
func (e *Engine) execute(xs []*tensor.Tensor, o execOpts) ([][]*tensor.Tensor, error) {
	if err := e.runnable(xs); err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, nil
	}
	p := e.plan
	head := p.checkout(len(xs))
	defer p.checkin(head)
	if err := e.runSteps(head, xs, 0, len(p.steps), o); err != nil {
		return nil, err
	}
	// The graph outputs: run wrote them fresh.
	outs := make([][]*tensor.Tensor, len(xs))
	c := head
	for img := range outs {
		outs[img] = c.results(p.outs)
		c = c.next
	}
	return outs, nil
}

// runnable returns the error execute gives before it runs a step: the
// engine is timing-only, or an input is nil.
func (e *Engine) runnable(xs []*tensor.Tensor) error {
	if !e.Numeric || e.plan == nil {
		return fmt.Errorf("core: engine %s is timing-only (no weights materialized)", e.Key())
	}
	for i, x := range xs {
		if x == nil {
			return fmt.Errorf("core: infer batch %s: input %d is nil", e.Key(), i)
		}
	}
	return nil
}

// runSteps runs steps [from,to) of the schedule over a batch whose
// contexts are chained from head.
func (e *Engine) runSteps(head *execCtx, xs []*tensor.Tensor, from, to int, o execOpts) error {
	p := e.plan
	for li := from; li < to; li++ {
		s := &p.steps[li]
		isInput := s.l.Op == graph.OpInput
		if o.guard != nil && !isInput {
			if err := o.guard(li, s.l.Name); err != nil {
				return fmt.Errorf("core: infer %s: %w", e.Key(), err)
			}
		}
		if o.fi != nil && !isInput {
			if lf := o.fi.Launch(li, s.l.Name); lf.Fail {
				return fmt.Errorf("core: infer %s layer %s: %w", e.Key(), s.l.Name, ErrLaunchFailed)
			}
		}
		w := s.w
		if s.l.Op == graph.OpConv || s.l.Op == graph.OpFC {
			if w == nil {
				return fmt.Errorf("core: infer %s layer %s: %s %s has no weights", e.Key(), s.l.Name, s.l.Op, s.l.Name)
			}
			if o.fi != nil {
				w = o.fi.CorruptWeights(s.l.Name, "w", w)
			}
		}
		c := head
		for _, x := range xs {
			y, err := s.run(c, x, w, s.escapes)
			if err != nil {
				return fmt.Errorf("core: infer %s layer %s: %w", e.Key(), s.l.Name, err)
			}
			if o.fi != nil && !isInput && y != x {
				o.fi.CorruptActivation(s.l.Name, y)
			}
			c.acts[li] = y
			c = c.next
		}
	}
	return nil
}

// results returns the activations at positions ret: what a call hands
// its caller for this image.
func (c *execCtx) results(ret []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ret))
	for i, li := range ret {
		out[i] = c.acts[li]
	}
	return out
}

// run executes the step for one image: x is the image's input tensor, w
// the step's (possibly corrupted) weights, c the image's context.
// escapes says the output leaves the call, so no slot may hold it. A
// reference step's conv or fc is an EvalLayerInto op like any other: it
// reads the layer's own weights, so w does not reach it.
func (s *step) run(c *execCtx, x, w *tensor.Tensor, escapes bool) (*tensor.Tensor, error) {
	switch op := s.l.Op; {
	case op == graph.OpInput:
		if s.ref && x.Shape() != s.l.OutShape {
			return nil, fmt.Errorf("input shape %v, want %v", x.Shape(), s.l.OutShape)
		}
		return x, nil
	case (op == graph.OpConv || op == graph.OpFC) && !s.ref:
		return s.kernel(c, w, escapes)
	}
	ins := c.ins[:len(s.ins)]
	for k, j := range s.ins {
		ins[k] = c.acts[j]
	}
	var y *tensor.Tensor
	switch {
	case s.l.Op == graph.OpDropout && ins[0] != nil && !(escapes && c.owns(ins[0])):
		return ins[0], nil // inference-time identity: the producer's tensor itself
	case s.view && !escapes && ins[0] == &c.bufs[s.out]:
		y = ins[0] // the producer's buffer dies here: reshape it in place
	default: // including a dropout that would hand a slot to the caller: it copies
		y = c.output(s, escapes)
	}
	if err := graph.EvalLayerInto(s.l, ins, y); err != nil {
		return nil, err
	}
	return y, nil
}

// kernel runs a conv or fc step with its tuned variant, so accumulation
// order and rounding match the plan; INT8 engines first fake-quantize
// the input into the step's tmp slot. Parameters the kernel cannot run
// (a corrupted plan, an input of the wrong shape) leave y nil, and the
// kernel's own validation reports the canonical error.
func (s *step) kernel(c *execCtx, w *tensor.Tensor, escapes bool) (*tensor.Tensor, error) {
	in := c.acts[s.ins[0]]
	if s.quant && in != nil {
		fakeQuantInto(in, s.qscale, &c.bufs[s.tmp])
		in = &c.bufs[s.tmp]
	}
	var y *tensor.Tensor
	var err error
	if s.l.Op == graph.OpConv {
		if in != nil {
			if g, gerr := tensor.CheckConv(in.Shape(), nil, nil, s.l.Conv); gerr == nil {
				y = c.output(s, escapes)
				y.Resize(in.N, s.l.Conv.OutC, g.OH, g.OW)
			}
		}
		err = kernels.ExecConvInto(s.v, in, w, s.b, s.l.Conv, y)
	} else {
		if in != nil && s.l.OutUnits >= 1 {
			y = c.output(s, escapes)
			y.Resize(in.N, s.l.OutUnits, 1, 1)
		}
		err = kernels.ExecFCInto(s.v, in, w, s.b, s.l.OutUnits, y)
	}
	if err != nil {
		return nil, err
	}
	switch s.f.Act { // non-ReLU fused activations, in place
	case ActLeaky:
		tensor.LeakyReLUInto(y, s.f.LeakyAlpha, y)
	case ActSigmoid:
		tensor.SigmoidInto(y, y)
	}
	return y, nil
}
