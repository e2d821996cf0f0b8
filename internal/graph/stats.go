package graph

// ParamCount returns the number of learned scalar parameters of a layer,
// computed from its operator parameters and (finalized) input shape —
// independent of whether weight tensors are actually materialized, so the
// full-scale model sizes of the paper's Table II can be accounted without
// allocating gigabytes.
func (g *Graph) ParamCount(l *Layer) int64 {
	switch l.Op {
	case OpConv:
		in := g.byName[l.Inputs[0]].OutShape
		groups := l.Conv.Groups
		if groups == 0 {
			groups = 1
		}
		w := int64(l.Conv.OutC) * int64(in[1]/groups) * int64(l.Conv.Kernel) * int64(l.Conv.Kernel)
		return w + int64(l.Conv.OutC) // + bias
	case OpFC:
		in := g.byName[l.Inputs[0]].OutShape
		return int64(l.OutUnits)*int64(in[1]*in[2]*in[3]) + int64(l.OutUnits)
	case OpBatchNorm, OpScale:
		in := g.byName[l.Inputs[0]].OutShape
		return 2 * int64(in[1]) // gamma+beta (mean/var folded as constants)
	default:
		return 0
	}
}

// TotalParams sums ParamCount over all layers. The graph must be
// finalized.
func (g *Graph) TotalParams() int64 {
	var total int64
	for _, l := range g.Layers {
		total += g.ParamCount(l)
	}
	return total
}

// ModelSizeBytes returns the serialized un-optimized model size: FP32
// parameters plus a fixed per-layer framework header, approximating the
// .caffemodel / .pb / .weights sizes of Table II.
func (g *Graph) ModelSizeBytes() int64 {
	const perLayerHeader = 256
	return g.TotalParams()*4 + int64(len(g.Layers))*perLayerHeader
}

// FLOPs returns the multiply-accumulate-derived floating-point operation
// count of a single inference of layer l (2 ops per MAC), used by the GPU
// simulator's analytic kernel timing.
func (g *Graph) FLOPs(l *Layer) int64 {
	out := l.OutShape
	outElems := int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(out[3])
	switch l.Op {
	case OpConv:
		in := g.byName[l.Inputs[0]].OutShape
		groups := l.Conv.Groups
		if groups == 0 {
			groups = 1
		}
		macsPerOut := int64(in[1]/groups) * int64(l.Conv.Kernel) * int64(l.Conv.Kernel)
		return 2 * outElems * macsPerOut
	case OpFC:
		in := g.byName[l.Inputs[0]].OutShape
		return 2 * int64(l.OutUnits) * int64(in[1]*in[2]*in[3])
	case OpMaxPool, OpAvgPool:
		return outElems * int64(l.Pool.Kernel) * int64(l.Pool.Kernel)
	case OpGlobalAvgPool:
		in := g.byName[l.Inputs[0]].OutShape
		return int64(in[0]) * int64(in[1]) * int64(in[2]) * int64(in[3])
	case OpLRN:
		return outElems * int64(l.LRNSize) * 4
	case OpBatchNorm, OpScale:
		return 2 * outElems
	case OpSoftmax:
		return 5 * outElems
	case OpAdd:
		return outElems * int64(len(l.Inputs)-1)
	case OpReLU, OpLeakyReLU, OpSigmoid:
		return outElems
	default:
		return 0
	}
}

// TotalFLOPs sums FLOPs over all layers.
func (g *Graph) TotalFLOPs() int64 {
	var total int64
	for _, l := range g.Layers {
		total += g.FLOPs(l)
	}
	return total
}

// CountOps returns the number of layers of each op type, used to report
// the "# Layers" column of Table II (e.g. "5 conv, 3 max pool").
func (g *Graph) CountOps() map[OpType]int {
	m := map[OpType]int{}
	for _, l := range g.Layers {
		m[l.Op]++
	}
	return m
}
