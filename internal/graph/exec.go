package graph

import (
	"fmt"

	"edgeinfer/internal/tensor"
)

// batchNormKeys is hoisted: EvalLayerInto sits on the batched-inference
// hot path and may not allocate the key list per call.
var batchNormKeys = []string{"gamma", "beta", "mean", "var"}

// Execute runs the graph numerically on input x using the bit-exact
// reference operators of internal/tensor, in FP32 throughout. This is the
// "un-optimized" execution path of the paper: one kernel per layer, no
// fusion, no quantization. It returns the tensors of all declared
// outputs. The graph must be finalized and must have weights materialized
// for every parametric layer.
func (g *Graph) Execute(x *tensor.Tensor) ([]*tensor.Tensor, error) {
	if !g.finalized {
		return nil, fmt.Errorf("graph %s: Execute before Finalize", g.Name)
	}
	want := g.InputShape
	if x.N != want[0] || x.C != want[1] || x.H != want[2] || x.W != want[3] {
		return nil, fmt.Errorf("graph %s: input shape %v, want %v", g.Name, x.Shape(), want)
	}
	acts := map[string]*tensor.Tensor{}
	if err := g.walk(x, acts); err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, name := range g.Outputs {
		outs[i] = acts[name]
	}
	return outs, nil
}

// ExecuteAll runs the layers in their order on input x with the
// reference operators and returns every layer's activation by layer name
// (the input layer's is x itself). It is Execute without the checks that
// need a finalized graph: INT8 calibration walks the fused graph before
// the builder finalizes it, so the layers must already be in
// topological order.
func (g *Graph) ExecuteAll(x *tensor.Tensor) (map[string]*tensor.Tensor, error) {
	acts := map[string]*tensor.Tensor{}
	if err := g.walk(x, acts); err != nil {
		return nil, err
	}
	return acts, nil
}

// walk is the one layer walk under Execute and ExecuteAll: it stores
// every layer's activation in acts, which the caller owns (Execute's
// stays on its stack).
func (g *Graph) walk(x *tensor.Tensor, acts map[string]*tensor.Tensor) error {
	for _, l := range g.Layers {
		if l.Op == OpInput {
			acts[l.Name] = x
			continue
		}
		ins := make([]*tensor.Tensor, len(l.Inputs))
		for i, name := range l.Inputs {
			ins[i] = acts[name]
		}
		y, err := EvalLayer(l, ins)
		if err != nil {
			return fmt.Errorf("graph %s, layer %s: %w", g.Name, l.Name, err)
		}
		acts[l.Name] = y
	}
	return nil
}

// EvalLayer evaluates a single layer on the given input tensors with the
// reference operators, into a fresh tensor — except dropout, the
// inference-time identity, which returns its input itself.
func EvalLayer(l *Layer, ins []*tensor.Tensor) (*tensor.Tensor, error) {
	if l.Op == OpDropout && len(ins) > 0 && ins[0] != nil {
		return ins[0], nil
	}
	y := new(tensor.Tensor)
	if err := EvalLayerInto(l, ins, y); err != nil {
		return nil, err
	}
	return y, nil
}

// EvalLayerInto is EvalLayer writing into y, which is resized to the
// layer's output shape and overwritten in full — the form the engine's
// compiled schedule calls with an execution context's slot buffer. y
// must not be an input, except for flatten, where y == ins[0] makes the
// flatten a view (tensor.FlattenInto).
//
// The reference operators in internal/tensor panic on malformed
// shapes/parameters — appropriate for model-construction bugs, but this
// entry point is also reachable from deserialized (untrusted) engine
// plans via Engine.Infer, so it validates the hostile cases up front and
// converts any residual operator panic into an error: a corrupted engine
// must degrade, not crash the process.
//
//rt:hotpath
func EvalLayerInto(l *Layer, ins []*tensor.Tensor, y *tensor.Tensor) (err error) {
	if len(ins) == 0 {
		return fmt.Errorf("layer has no inputs")
	}
	for i, t := range ins {
		if t == nil {
			return fmt.Errorf("input %d not materialized", i)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("eval %s(%s): %v", l.Name, l.Op, r)
		}
	}()
	in := ins[0]
	switch l.Op {
	case OpConv:
		w, b := l.Weights["w"], l.Weights["b"]
		if w == nil {
			return fmt.Errorf("conv has no weights materialized")
		}
		if _, err := tensor.CheckConv(in.Shape(), w, b, l.Conv); err != nil {
			return err
		}
		tensor.Conv2DInto(in, w, b, l.Conv, y)
	case OpMaxPool, OpAvgPool:
		if _, _, err := tensor.CheckPool(in.Shape(), l.Pool); err != nil {
			return err
		}
		if l.Op == OpMaxPool {
			tensor.MaxPool2DInto(in, l.Pool, y)
		} else {
			tensor.AvgPool2DInto(in, l.Pool, y)
		}
	case OpGlobalAvgPool:
		tensor.GlobalAvgPool2DInto(in, y)
	case OpReLU:
		tensor.ReLUInto(in, y)
	case OpLeakyReLU:
		tensor.LeakyReLUInto(in, l.Alpha, y)
	case OpSigmoid:
		tensor.SigmoidInto(in, y)
	case OpFC:
		w, b := l.Weights["w"], l.Weights["b"]
		if w == nil {
			return fmt.Errorf("fc has no weights materialized")
		}
		if _, err := tensor.CheckFC(in.Shape(), w, b, l.OutUnits); err != nil {
			return err
		}
		tensor.FCInto(in, w, b, l.OutUnits, y)
	case OpBatchNorm:
		for _, k := range batchNormKeys {
			if t := l.Weights[k]; t != nil && t.Len() < in.C {
				return fmt.Errorf("batchnorm %s len %d, want %d", k, t.Len(), in.C)
			}
		}
		tensor.BatchNormInto(in, l.Weights["gamma"], l.Weights["beta"], l.Weights["mean"], l.Weights["var"], 1e-5, y)
	case OpLRN:
		tensor.LRNInto(in, l.LRNSize, l.Alpha, l.LRNBeta, l.LRNK, y)
	case OpSoftmax:
		tensor.SoftmaxInto(in, y)
	case OpAdd:
		for _, t := range ins[1:] {
			if !in.SameShape(t) {
				return fmt.Errorf("add shape mismatch %v vs %v", in.Shape(), t.Shape())
			}
			tensor.AddInto(in, t, y)
			in = y // later inputs accumulate in place
		}
	case OpConcat:
		tensor.ConcatInto(ins, y)
	case OpUpsample:
		tensor.Upsample2xInto(in, y)
	case OpDropout: // inference-time identity
		y.Resize(in.N, in.C, in.H, in.W)
		copy(y.Data, in.Data)
	case OpScale:
		tensor.ScaleInto(in, l.Weights["gamma"], l.Weights["beta"], y)
	case OpFlatten:
		tensor.FlattenInto(in, y)
	default:
		return fmt.Errorf("EvalLayer: unsupported op %v", l.Op)
	}
	return nil
}
