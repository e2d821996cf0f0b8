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
	for _, l := range g.Layers {
		var y *tensor.Tensor
		var err error
		if l.Op == OpInput {
			y = x
		} else {
			ins := make([]*tensor.Tensor, len(l.Inputs))
			for i, name := range l.Inputs {
				ins[i] = acts[name]
			}
			y, err = EvalLayer(l, ins)
			if err != nil {
				return nil, fmt.Errorf("graph %s, layer %s: %w", g.Name, l.Name, err)
			}
		}
		acts[l.Name] = y
	}
	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, name := range g.Outputs {
		outs[i] = acts[name]
	}
	return outs, nil
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
		if err := checkConv(in, w, b, l.Conv); err != nil {
			return err
		}
		tensor.Conv2DInto(in, w, b, l.Conv, y)
	case OpMaxPool:
		tensor.MaxPool2DInto(in, l.Pool, y)
	case OpAvgPool:
		tensor.AvgPool2DInto(in, l.Pool, y)
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
		if l.OutUnits < 1 {
			return fmt.Errorf("fc with OutUnits=%d", l.OutUnits)
		}
		if want := l.OutUnits * in.C * in.H * in.W; w.Len() != want {
			return fmt.Errorf("fc weight len %d, want %d", w.Len(), want)
		}
		if b != nil && b.Len() < l.OutUnits {
			return fmt.Errorf("fc bias len %d, want %d", b.Len(), l.OutUnits)
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

// checkConv validates the conditions tensor.Conv2D would panic on, so a
// corrupted plan produces an error instead.
func checkConv(x, w, b *tensor.Tensor, p tensor.ConvParams) error {
	if p.Kernel < 1 || p.Stride < 1 || p.Pad < 0 || p.OutC < 1 {
		return fmt.Errorf("conv params k=%d s=%d p=%d outC=%d invalid", p.Kernel, p.Stride, p.Pad, p.OutC)
	}
	groups := p.Groups
	if groups <= 0 {
		groups = 1
	}
	if x.C%groups != 0 || p.OutC%groups != 0 {
		return fmt.Errorf("conv groups %d do not divide channels in=%d out=%d", groups, x.C, p.OutC)
	}
	if want := p.OutC * (x.C / groups) * p.Kernel * p.Kernel; w.Len() != want {
		return fmt.Errorf("conv weight len %d, want %d", w.Len(), want)
	}
	if b != nil && b.Len() < p.OutC {
		return fmt.Errorf("conv bias len %d, want %d", b.Len(), p.OutC)
	}
	if tensor.ConvOutDim(x.H, p.Kernel, p.Stride, p.Pad) < 1 ||
		tensor.ConvOutDim(x.W, p.Kernel, p.Stride, p.Pad) < 1 {
		return fmt.Errorf("conv output not positive for input %v", x.Shape())
	}
	return nil
}
