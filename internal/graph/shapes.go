package graph

import (
	"fmt"

	"edgeinfer/internal/tensor"
)

// inferShapes walks the (already topologically sorted) layers and fills
// in OutShape for each, validating operator parameters against input
// shapes as it goes.
func (g *Graph) inferShapes() error {
	for _, l := range g.Layers {
		shape, err := g.layerOutShape(l)
		if err != nil {
			return fmt.Errorf("graph %s, layer %s(%s): %w", g.Name, l.Name, l.Op, err)
		}
		l.OutShape = shape
	}
	return nil
}

func (g *Graph) layerOutShape(l *Layer) ([4]int, error) {
	var in [4]int
	if l.Op != OpInput {
		in = g.byName[l.Inputs[0]].OutShape
	}
	switch l.Op {
	case OpInput:
		return g.InputShape, nil

	case OpConv:
		g, err := tensor.CheckConv(in, nil, nil, l.Conv)
		if err != nil {
			return in, err
		}
		return [4]int{in[0], l.Conv.OutC, g.OH, g.OW}, nil

	case OpMaxPool, OpAvgPool:
		oh, ow, err := tensor.CheckPool(in, l.Pool)
		if err != nil {
			return in, err
		}
		return [4]int{in[0], in[1], oh, ow}, nil

	case OpGlobalAvgPool:
		return [4]int{in[0], in[1], 1, 1}, nil

	case OpReLU, OpLeakyReLU, OpSigmoid, OpBatchNorm, OpLRN, OpSoftmax, OpDropout, OpScale:
		return in, nil

	case OpFC:
		if _, err := tensor.CheckFC(in, nil, nil, l.OutUnits); err != nil {
			return in, err
		}
		return [4]int{in[0], l.OutUnits, 1, 1}, nil

	case OpFlatten:
		return [4]int{in[0], in[1] * in[2] * in[3], 1, 1}, nil

	case OpAdd:
		if len(l.Inputs) < 2 {
			return in, fmt.Errorf("add needs >=2 inputs, got %d", len(l.Inputs))
		}
		for _, name := range l.Inputs[1:] {
			if g.byName[name].OutShape != in {
				return in, fmt.Errorf("add shape mismatch %v vs %v", g.byName[name].OutShape, in)
			}
		}
		return in, nil

	case OpConcat:
		if len(l.Inputs) < 2 {
			return in, fmt.Errorf("concat needs >=2 inputs, got %d", len(l.Inputs))
		}
		c := 0
		for _, name := range l.Inputs {
			s := g.byName[name].OutShape
			if s[0] != in[0] || s[2] != in[2] || s[3] != in[3] {
				return in, fmt.Errorf("concat spatial mismatch %v vs %v", s, in)
			}
			c += s[1]
		}
		return [4]int{in[0], c, in[2], in[3]}, nil

	case OpUpsample:
		return [4]int{in[0], in[1], in[2] * 2, in[3] * 2}, nil

	default:
		return in, fmt.Errorf("unknown op %v", l.Op)
	}
}

// OutputShapes returns the shapes of the declared graph outputs in order.
// The graph must be finalized.
func (g *Graph) OutputShapes() [][4]int {
	out := make([][4]int, len(g.Outputs))
	for i, name := range g.Outputs {
		out[i] = g.byName[name].OutShape
	}
	return out
}
