package core

import (
	"math"
	"slices"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// deadLayerRemoval deletes every layer that cannot reach a declared
// output (training-only heads such as GoogLeNet's auxiliary classifiers)
// as well as inference-time no-ops (dropout). Returns the number of
// removed layers. The graph must be re-finalized afterwards.
func deadLayerRemoval(g *graph.Graph) int {
	// Mark reverse reachability from outputs.
	live := map[string]bool{}
	var mark func(name string)
	mark = func(name string) {
		if live[name] {
			return
		}
		live[name] = true
		for _, in := range g.Layer(name).Inputs {
			mark(in)
		}
	}
	for _, o := range g.Outputs {
		mark(o)
	}
	removed := 0
	// Delete dead layers in reverse topological order so each is a sink
	// when deleted (Remove splices single-input layers; dead sinks with
	// multiple inputs are deleted by rebuilding the layer list).
	var keep []*graph.Layer
	for _, l := range g.Layers {
		if live[l.Name] {
			keep = append(keep, l)
		} else {
			removed++
		}
	}
	if removed > 0 {
		g.Layers = keep
		rebuildIndex(g)
	}
	// Dropout is identity at inference: splice it out.
	for _, l := range append([]*graph.Layer(nil), g.Layers...) {
		if l.Op == graph.OpDropout {
			g.Remove(l.Name)
			removed++
		}
	}
	return removed
}

// rebuildIndex reconstructs the graph's name index after bulk layer
// deletion. It relies on the exported fields only.
func rebuildIndex(g *graph.Graph) {
	// Re-adding through a fresh graph keeps graph invariants intact.
	ng := graph.New(g.Name, g.InputShape)
	for _, l := range g.Layers {
		if l.Op == graph.OpInput {
			continue
		}
		ng.Add(l)
	}
	g.Layers = ng.Layers
	*g = *replaceIndex(g, ng)
}

// replaceIndex is a helper for rebuildIndex: it moves ng's internal index
// into g by copying the graph-level metadata onto ng and returning it.
func replaceIndex(g, ng *graph.Graph) *graph.Graph {
	ng.Name = g.Name
	ng.Framework = g.Framework
	ng.Task = g.Task
	ng.InputShape = g.InputShape
	ng.Outputs = g.Outputs
	return ng
}

// verticalFusion folds conv->BN->activation (and conv->activation,
// FC->activation) chains into the preceding conv/FC layer, removing the
// folded layers from the graph and recording the fusion. When weights
// are materialized the BN affine transform is folded into the conv
// weights numerically. Returns the fusion table and the number of layers
// absorbed.
func verticalFusion(g *graph.Graph) (map[string]Fusion, int) {
	fusions := map[string]Fusion{}
	absorbed := 0
	uses := consumerIndex(g)
	for {
		fused := fuseOne(g, fusions, uses)
		if fused == "" {
			break
		}
		absorbed++
	}
	return fusions, absorbed
}

// fuseOne finds and applies a single fusion opportunity, returning the
// name of the absorbed layer (or "" when no further fusion applies). One
// mutation per scan keeps iteration over g.Layers safe. A declared
// output is never fused into: its consumer would overwrite the tensor
// the caller asked for, so TensorRT, too, does not fuse across a marked
// output. uses is g's consumerIndex, kept current across the splice.
func fuseOne(g *graph.Graph, fusions map[string]Fusion, uses map[string]consumerUse) string {
	for _, l := range g.Layers {
		if l.Op != graph.OpConv && l.Op != graph.OpFC {
			continue
		}
		f := fusions[l.Name]
		if f.Act != ActNone {
			continue // already fused an activation; chain complete
		}
		u := uses[l.Name]
		if u.n != 1 || slices.Contains(g.Outputs, l.Name) {
			continue
		}
		next := u.last
		switch next.Op {
		case graph.OpBatchNorm, graph.OpScale:
			if f.FoldedBN || l.Op != graph.OpConv {
				continue
			}
			foldBN(l, next)
			f.FoldedBN = true
		case graph.OpReLU:
			f.Act = ActReLU
		case graph.OpLeakyReLU:
			f.Act = ActLeaky
			f.LeakyAlpha = next.Alpha
		case graph.OpSigmoid:
			f.Act = ActSigmoid
		default:
			continue
		}
		f.Absorbed = append(f.Absorbed, next.Name)
		fusions[l.Name] = f
		name := next.Name
		g.Remove(name)
		// next read only l, and l fed only next, so next's consumers now
		// read l instead and none of them read l before.
		if u, ok := uses[name]; ok {
			uses[l.Name] = u
		} else {
			delete(uses, l.Name)
		}
		delete(uses, name)
		return name
	}
	return ""
}

// consumerUse counts the layers that consume one layer's output and
// keeps the last of them in layer order.
type consumerUse struct {
	n    int
	last *graph.Layer
}

// consumerIndex maps each layer name to its consumers. A layer that
// reads the same input twice (Add(x, x)) is one consumer of it.
func consumerIndex(g *graph.Graph) map[string]consumerUse {
	uses := make(map[string]consumerUse, len(g.Layers))
	for _, l := range g.Layers {
		for i, in := range l.Inputs {
			if slices.Contains(l.Inputs[:i], in) {
				continue
			}
			u := uses[in]
			u.n++
			u.last = l
			uses[in] = u
		}
	}
	return uses
}

// foldBN folds an inference-mode batch-norm (or scale) layer into the
// preceding convolution's weights and bias, when they are materialized.
func foldBN(conv, bn *graph.Layer) {
	w := conv.Weights["w"]
	if w == nil {
		return // timing-only graph: fold is metadata-only
	}
	outC := conv.Conv.OutC
	scale := make([]float32, outC)
	shift := make([]float32, outC)
	gamma, beta := bn.Weights["gamma"], bn.Weights["beta"]
	mean, variance := bn.Weights["mean"], bn.Weights["var"]
	for c := 0; c < outC; c++ {
		var sc, sh float32 = 1, 0
		if gamma != nil {
			sc = gamma.Data[c]
		}
		if bn.Op == graph.OpBatchNorm {
			v := float32(1)
			if variance != nil {
				v = variance.Data[c]
			}
			m := float32(0)
			if mean != nil {
				m = mean.Data[c]
			}
			inv := float32(1 / math.Sqrt(float64(v)+1e-5))
			sh = -m * sc * inv
			sc = sc * inv
		}
		if beta != nil {
			sh += beta.Data[c]
		}
		scale[c] = sc
		shift[c] = sh
	}
	perOC := w.Len() / outC
	for oc := 0; oc < outC; oc++ {
		for i := 0; i < perOC; i++ {
			w.Data[oc*perOC+i] *= scale[oc]
		}
	}
	b := conv.Weights["b"]
	if b == nil {
		b = tensor.NewVec(outC)
		conv.Weights["b"] = b
	}
	for c := 0; c < outC; c++ {
		b.Data[c] = b.Data[c]*scale[c] + shift[c]
	}
}

// quantizeWeights applies the model-compression numerics to materialized
// weights: magnitude pruning (weights below pruneFrac of the tensor RMS
// are zeroed — this removes the dense low-magnitude "overfit" component,
// the paper's explanation for TensorRT's small accuracy gain) followed by
// rounding to the engine precision. Returns the number of weight tensors
// processed.
func quantizeWeights(g *graph.Graph, prec tensor.Precision, pruneFrac float64) int {
	n := 0
	for _, l := range g.Layers {
		for name, w := range l.Weights {
			if w == nil {
				continue
			}
			n++
			if name == "w" && pruneFrac > 0 {
				pruneTensor(w, pruneFrac)
			}
			switch prec {
			case tensor.FP16:
				tensor.RoundTensorFP16(w)
			case tensor.INT8:
				tensor.RoundTensorINT8(w)
			}
		}
	}
	return n
}

// pruneTensor zeroes elements whose magnitude is below frac times the
// tensor's RMS.
func pruneTensor(w *tensor.Tensor, frac float64) {
	var sumsq float64
	for _, v := range w.Data {
		sumsq += float64(v) * float64(v)
	}
	if sumsq == 0 {
		return
	}
	rms := math.Sqrt(sumsq / float64(len(w.Data)))
	thresh := float32(frac * rms)
	for i, v := range w.Data {
		if v < thresh && v > -thresh {
			w.Data[i] = 0
		}
	}
}
