package core

import (
	"math"
	"slices"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// The compiled schedule (DESIGN §5, "The compiled schedule"). As TensorRT resolves
// tactics, fusions and tensor memory at build time and an execution
// context replays the plan, Build and Load end by compiling a numeric
// engine's graph into a flat []step — variant, epilogue, quant scale,
// weights and producer positions resolved once — with every activation
// assigned a reusable slot; an execCtx owns one image's slot buffers.
// Derived state: never serialized, absent on timing-only engines.

// step is one layer of the schedule. steps[i] executes Graph.Layers[i],
// so the injector and the budget guard still receive (index, name).
type step struct {
	l   *graph.Layer // name, op and operator parameters
	ins []int        // position of each input's producer
	// out is the context slot the output is written to; -1 when the step
	// owns no buffer (the input, dropout's alias, a graph output).
	out int
	// escapes marks a graph output: the caller keeps it after the call (a
	// quorum replica still running after the vote, the netserve encoder),
	// so it is written to a fresh tensor and never to a slot.
	escapes bool
	// view marks a flatten whose producer's buffer dies with it: out is
	// the producer's slot, reshaped in place.
	view bool
	// ref marks a step of the FP32 reference (Reference): a conv or fc
	// runs graph.EvalLayerInto's reference operator, not a kernel, and
	// the input step holds the caller to the declared shape.
	ref bool

	// conv / fc only.
	v      kernels.Variant // tuned variant, FusedAct resolved
	f      Fusion          // non-ReLU epilogue
	w, b   *tensor.Tensor
	quant  bool    // fake-quantize the input first (INT8 engines)
	qscale float32 // calibrated range of the input's producer / 127
	tmp    int     // slot of the fake-quantized copy
}

// schedule is an engine's compiled plan and its idle execution contexts.
type schedule struct {
	steps   []step
	outs    []int // positions of the graph outputs
	slotLen []int // elements each slot holds at the declared input shape
	fanIn   int   // widest step; sizes a context's input scratch
	// free holds idle contexts: a bounded free list, not a sync.Pool — a
	// GC empties a pool, and the slot buffers would be per-inference
	// allocations again at the collector's whim.
	free chan *execCtx
}

// ctxCap bounds the contexts an engine keeps between calls (one batch of
// netserve's default MaxBatch); a wider batch's excess is dropped after.
const ctxCap = 8

// execCtx is the activation memory of one image in flight.
type execCtx struct {
	bufs []tensor.Tensor  // one per slot, kept across calls
	acts []*tensor.Tensor // this call's activation per layer; nil between calls
	ins  []*tensor.Tensor // input scratch of the step being run
	next *execCtx         // the batch's next image
}

// layerIndex maps each layer name of g to its position (nil for a nil
// graph).
func layerIndex(g *graph.Graph) map[string]int {
	if g == nil {
		return nil
	}
	idx := make(map[string]int, len(g.Layers))
	for i, l := range g.Layers {
		idx[l.Name] = i
	}
	return idx
}

// compile builds the schedule of a numeric engine (nil for a
// timing-only one). It cannot fail: a step the plan cannot run (no weights, weights of the wrong length)
// reports the canonical error when it executes, so Load accepts and
// rejects exactly the plans it always did.
func compile(e *Engine) *schedule {
	if !e.Numeric {
		return nil
	}
	g := e.Graph
	n := len(g.Layers)
	p := &schedule{steps: make([]step, n), fanIn: 1, free: make(chan *execCtx, ctxCap)}
	idx := layerIndex(g)
	lastUse := make([]int, n) // last step reading layer i's activation
	for i, l := range g.Layers {
		lastUse[i] = i
		s := &p.steps[i]
		s.l, s.ins, s.out = l, make([]int, len(l.Inputs)), -1
		for k, name := range l.Inputs { // producers precede consumers: Finalize sorted them
			s.ins[k] = idx[name]
			lastUse[idx[name]] = i
		}
		p.fanIn = max(p.fanIn, len(s.ins))
		if l.Op == graph.OpConv || l.Op == graph.OpFC {
			e.resolveKernel(s)
		}
	}
	for _, name := range g.Outputs {
		p.outs = append(p.outs, idx[name])
		p.steps[idx[name]].escapes = true
	}
	for i := n - 1; i > 0; i-- { // a dropout that escapes is its producer's tensor
		if s := &p.steps[i]; s.escapes && s.l.Op == graph.OpDropout {
			p.steps[s.ins[0]].escapes = true
		}
	}

	// Liveness. root[i] is the step whose slot holds layer i's activation
	// (-1: no slot does — the caller's input, a graph output); dropout and
	// view flattens share their producer's. end[r] is the last step reading
	// anything rooted at r; its slot is idle after. A step takes its output
	// slot before releasing its inputs, so it never writes what it reads
	// and a conv chain ping-pongs between two.
	root, end := make([]int, n), make([]int, n)
	var idle []int
	take := func(layer int) int {
		slot := len(p.slotLen)
		if k := len(idle); k > 0 {
			slot, idle = idle[k-1], idle[:k-1]
		} else {
			p.slotLen = append(p.slotLen, 0)
		}
		s := g.Layers[layer].OutShape
		p.slotLen[slot] = max(p.slotLen[slot], s[0]*s[1]*s[2]*s[3])
		return slot
	}
	release := func(layer, at int) { // idle the layer's slot if step at read it last
		if r := root[layer]; r >= 0 && end[r] == at {
			idle = append(idle, p.steps[r].out)
			end[r] = -1 // once, however many aliases end here
		}
	}
	for i := range p.steps {
		s := &p.steps[i]
		root[i], end[i] = i, lastUse[i]
		switch op := s.l.Op; {
		case op == graph.OpInput || s.escapes:
			root[i] = -1
		case op == graph.OpDropout:
			root[i] = root[s.ins[0]]
		case op == graph.OpFlatten && root[s.ins[0]] >= 0 && end[root[s.ins[0]]] == i:
			root[i], s.view = root[s.ins[0]], true
		}
		if r := root[i]; r == i {
			s.out = take(i)
		} else if r >= 0 {
			s.out, end[r] = p.steps[r].out, max(end[r], lastUse[i])
		}
		if s.quant {
			s.tmp = take(s.ins[0])
			idle = append(idle, s.tmp)
		}
		release(i, i)
		for _, j := range s.ins {
			release(j, i)
		}
	}
	return p
}

// resolveKernel fixes what a conv/fc step runs with: weights, the
// tuner's variant (the un-optimized kernel when the plan names none),
// the fused epilogue and, on an INT8 engine, the input's quant scale.
func (e *Engine) resolveKernel(s *step) {
	l := s.l
	s.w, s.b = l.Weights["w"], l.Weights["b"]
	v, ok := e.Choices[l.Name]
	if !ok {
		v = kernels.UnoptimizedConv()
		if l.Op == graph.OpFC {
			v = kernels.Variant{Family: kernels.FamGEMM, TileM: 128, TileN: 64, TileK: 32, Precision: tensor.FP32}
		}
	}
	s.f = e.Fusions[l.Name]
	// The kernel's fused epilogue handles plain ReLU; other activations
	// are applied after (still one launch — epilogue code).
	v.FusedAct = s.f.Act == ActReLU
	s.v = v
	if e.Precision == tensor.INT8 && e.Int8Ranges != nil {
		if rangeMax := e.Int8Ranges[l.Inputs[0]]; !(rangeMax <= 0) {
			s.quant, s.qscale = true, rangeMax/127
		}
	}
}

// checkout hands out n contexts chained through next, idle ones first;
// the rest (warm-up, a batch wider than ctxCap) are made, slot buffers
// sized for the declared input shape and grown in place by an input of
// another N/H/W (tensor.Resize).
//
//rt:hotpath
func (p *schedule) checkout(n int) *execCtx {
	var head *execCtx
	for ; n > 0; n-- {
		var c *execCtx
		select {
		case c = <-p.free:
		default:
		}
		if c == nil {
			c = &execCtx{
				bufs: make([]tensor.Tensor, len(p.slotLen)),
				acts: make([]*tensor.Tensor, len(p.steps)),
				ins:  make([]*tensor.Tensor, p.fanIn),
			}
			for i, elems := range p.slotLen {
				c.bufs[i].Data = make([]float32, 0, elems)
			}
		}
		c.next, head = head, c
	}
	return head
}

// checkin takes a call's contexts back, per-call references dropped: an
// idle context must not keep a caller's input or returned output alive.
//
//rt:hotpath
func (p *schedule) checkin(head *execCtx) {
	for head != nil {
		c := head
		head, c.next = c.next, nil
		clear(c.acts)
		clear(c.ins)
		select {
		case p.free <- c:
		default: // ctxCap contexts are idle already
		}
	}
}

// owns reports whether t is one of the context's slot buffers — memory
// that must never reach a caller.
func (c *execCtx) owns(t *tensor.Tensor) bool {
	for i := range c.bufs {
		if t == &c.bufs[i] {
			return true
		}
	}
	return false
}

// output returns the tensor a step writes for this image: a fresh one
// when the activation leaves the call, else the step's slot.
func (c *execCtx) output(s *step, escapes bool) *tensor.Tensor {
	if escapes || s.out < 0 {
		return new(tensor.Tensor)
	}
	return &c.bufs[s.out]
}

// SameNumerics reports whether e and o are the same numeric program:
// whether their schedules compute bit-identical outputs on every input,
// so an answer of one is an answer of the other (DESIGN §5, "Program
// identity"). It is true when their shared prefix (sharedPrefix) covers
// every step and the graph outputs are equal: per step, exactly and
// without hashing, everything execute reads on a pristine device.
// Layer names, kernel family, TileM/TileN, layout, platform and build id
// are not read by a reduction and are not compared. It errs only towards
// false (the raw TileK is compared, not its clamp to the reduction
// length), and is false for a timing-only engine, which computes nothing.
func (e *Engine) SameNumerics(o *Engine) bool {
	p, q := e.plan, o.plan
	if p == nil || q == nil {
		return false
	}
	return p == q || len(p.steps) == len(q.steps) && slices.Equal(p.outs, q.outs) && e.sharedPrefix(o) == len(p.steps)
}

// sharedPrefix returns how many leading steps e and o run alike on any
// input: 0 unless both are numeric with the same declared input shape,
// else the length of the longest run of steps equal in the op, whether
// it is a Reference's, the operator parameters, the producer positions,
// the variant's kernels.Numerics, the fused epilogue, the INT8 input
// scale and the weights by shape and bit pattern. The schedules'
// activations then agree step for step over that prefix: it is the
// per-step test of SameNumerics and of a Group's fork points.
func (e *Engine) sharedPrefix(o *Engine) int {
	p, q := e.plan, o.plan
	if p == nil || q == nil || e.Graph.InputShape != o.Graph.InputShape {
		return 0
	}
	if p == q {
		return len(p.steps)
	}
	n := 0 // structure first: it is cheap and differs early
	for n < min(len(p.steps), len(q.steps)) && p.steps[n].sameOp(&q.steps[n]) {
		n++
	}
	for i := range n {
		if !p.steps[i].sameWeights(&q.steps[i]) {
			return i
		}
	}
	return n
}

// sameOp compares everything a step runs with except its weights.
// Float parameters compare by bit pattern, so a NaN equals itself.
func (s *step) sameOp(t *step) bool {
	a, b := s.l, t.l
	bits := math.Float32bits
	return a.Op == b.Op && s.ref == t.ref && slices.Equal(s.ins, t.ins) &&
		a.Conv == b.Conv && a.Pool == b.Pool && a.OutUnits == b.OutUnits && a.LRNSize == b.LRNSize &&
		bits(a.Alpha) == bits(b.Alpha) && bits(a.LRNBeta) == bits(b.LRNBeta) && bits(a.LRNK) == bits(b.LRNK) &&
		s.v.Numerics() == t.v.Numerics() &&
		s.f.Act == t.f.Act && bits(s.f.LeakyAlpha) == bits(t.f.LeakyAlpha) &&
		s.quant == t.quant && bits(s.qscale) == bits(t.qscale)
}

// sameWeights compares the tensors the step reads: the w/b a conv or fc
// resolved at compile time, every named parameter of any other layer
// (graph.EvalLayerInto looks them up by name; absent and nil are alike).
func (s *step) sameWeights(t *step) bool {
	if s.l.Op == graph.OpConv || s.l.Op == graph.OpFC {
		return sameTensor(s.w, t.w) && sameTensor(s.b, t.b)
	}
	for k, w := range s.l.Weights {
		if !sameTensor(w, t.l.Weights[k]) {
			return false
		}
	}
	for k, w := range t.l.Weights {
		if _, ok := s.l.Weights[k]; !ok && w != nil {
			return false
		}
	}
	return true
}

// sameTensor reports equal shape and bit-identical data.
func sameTensor(a, b *tensor.Tensor) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || !a.SameShape(b) || len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
