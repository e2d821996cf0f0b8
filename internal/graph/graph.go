// Package graph defines the neural-network intermediate representation
// shared by the whole system: framework importers produce Graphs, the
// inference-engine builder (internal/core) optimizes them, and the
// reference executor runs them numerically. A Graph is a DAG of named
// layers with full shape/parameter/FLOP accounting, which the GPU
// simulator uses for analytic timing at paper-scale dimensions.
package graph

import (
	"fmt"
	"sort"

	"edgeinfer/internal/tensor"
)

// OpType enumerates the layer operators supported by the IR. The set
// covers all 13 networks of the paper's Table II.
type OpType uint8

const (
	OpInput OpType = iota
	OpConv
	OpMaxPool
	OpAvgPool
	OpGlobalAvgPool
	OpReLU
	OpLeakyReLU
	OpSigmoid
	OpFC
	OpBatchNorm
	OpLRN
	OpSoftmax
	OpAdd
	OpConcat
	OpUpsample
	OpDropout // training-only; removed by the dead-layer pass
	OpScale   // identity affine; foldable
	OpFlatten // reshape to [N, C*H*W, 1, 1]
)

var opNames = map[OpType]string{
	OpInput: "input", OpConv: "conv", OpMaxPool: "maxpool",
	OpAvgPool: "avgpool", OpGlobalAvgPool: "gap", OpReLU: "relu",
	OpLeakyReLU: "leakyrelu", OpSigmoid: "sigmoid", OpFC: "fc",
	OpBatchNorm: "batchnorm", OpLRN: "lrn", OpSoftmax: "softmax",
	OpAdd: "add", OpConcat: "concat", OpUpsample: "upsample",
	OpDropout: "dropout", OpScale: "scale", OpFlatten: "flatten",
}

// String implements fmt.Stringer.
func (o OpType) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Layer is one node of the network DAG.
type Layer struct {
	Name   string
	Op     OpType
	Inputs []string // producer layer names; order matters for Concat/Add

	// Operator parameters (only the fields relevant to Op are used).
	Conv     tensor.ConvParams
	Pool     tensor.PoolParams
	OutUnits int     // FC output width
	Alpha    float32 // LeakyReLU slope or LRN alpha
	LRNSize  int
	LRNBeta  float32
	LRNK     float32

	// Weights maps parameter names ("w", "b", "gamma", "beta", "mean",
	// "var") to tensors. Populated by model builders or framework
	// importers; nil entries are permitted (e.g. bias-free conv).
	Weights map[string]*tensor.Tensor

	// OutShape is filled in by Graph.Finalize via shape inference.
	OutShape [4]int
}

// Graph is a network DAG. Layers are stored in insertion order; Finalize
// validates the DAG, topologically sorts it and infers shapes.
type Graph struct {
	Name       string
	Framework  string // training framework of origin ("caffe", "tensorflow", ...)
	Task       string // "classification", "detection", "segmentation"
	InputShape [4]int

	Layers  []*Layer
	Outputs []string // names of output layers; defaults to sinks

	byName    map[string]*Layer
	finalized bool
}

// New creates an empty graph with the given input shape [N, C, H, W].
func New(name string, inputShape [4]int) *Graph {
	g := &Graph{
		Name:       name,
		InputShape: inputShape,
		byName:     map[string]*Layer{},
	}
	in := &Layer{Name: "data", Op: OpInput, OutShape: inputShape}
	g.Layers = append(g.Layers, in)
	g.byName[in.Name] = in
	return g
}

// AddLayer appends a layer, validating the topology invariants every
// other method relies on (New made the graph's only input layer; a
// second one is rejected). It is the entry point for layers that originate
// outside the process — deserialized engine plans, framework imports —
// where a malformed layer must surface as an error, never a panic.
func (g *Graph) AddLayer(l *Layer) error {
	if l.Name == "" {
		return fmt.Errorf("graph: layer with empty name")
	}
	if _, dup := g.byName[l.Name]; dup {
		return fmt.Errorf("graph: duplicate layer %q", l.Name)
	}
	if l.Op == OpInput {
		return fmt.Errorf("graph: layer %q redeclares the input", l.Name)
	}
	if len(l.Inputs) == 0 {
		return fmt.Errorf("graph: layer %q has no inputs", l.Name)
	}
	for _, in := range l.Inputs {
		if _, ok := g.byName[in]; !ok {
			return fmt.Errorf("graph: layer %q references unknown input %q", l.Name, in)
		}
	}
	if l.Weights == nil {
		l.Weights = map[string]*tensor.Tensor{}
	}
	g.Layers = append(g.Layers, l)
	g.byName[l.Name] = l
	g.finalized = false
	return nil
}

// Add appends a layer. It panics on duplicate names or missing inputs —
// model construction errors are programming bugs, not runtime conditions.
// Untrusted callers (plan loaders, importers) must use AddLayer instead;
// Add is only reachable from static model definitions.
func (g *Graph) Add(l *Layer) *Layer {
	if err := g.AddLayer(l); err != nil {
		panic(err) //rt:allow panicpath -- static model definitions only; plan loaders use AddLayer
	}
	return l
}

// Layer returns the named layer, or nil if absent.
func (g *Graph) Layer(name string) *Layer { return g.byName[name] }

// Finalize validates the graph, sorts layers topologically, infers all
// output shapes and determines outputs (sink layers) if not set.
func (g *Graph) Finalize() error {
	sorted, err := g.topoSort()
	if err != nil {
		return err
	}
	g.Layers = sorted
	if err := g.inferShapes(); err != nil {
		return err
	}
	if len(g.Outputs) == 0 {
		g.Outputs = g.sinks()
	}
	for _, o := range g.Outputs {
		if g.byName[o] == nil {
			return fmt.Errorf("graph %s: declared output %q does not exist", g.Name, o)
		}
	}
	g.finalized = true
	return nil
}

// Finalized reports whether Finalize has succeeded since the last edit.
func (g *Graph) Finalized() bool { return g.finalized }

// sinks returns names of layers no other layer consumes, sorted for
// determinism.
func (g *Graph) sinks() []string {
	consumed := map[string]bool{}
	for _, l := range g.Layers {
		for _, in := range l.Inputs {
			consumed[in] = true
		}
	}
	var out []string
	for _, l := range g.Layers {
		if !consumed[l.Name] && l.Op != OpInput {
			out = append(out, l.Name)
		}
	}
	sort.Strings(out)
	return out
}

// topoSort returns the layers in topological order or an error on
// cycles.
func (g *Graph) topoSort() ([]*Layer, error) {
	order := g.kahn()
	if len(order) != len(g.Layers) {
		return nil, fmt.Errorf("graph %s: cycle detected (%d of %d layers sorted)", g.Name, len(order), len(g.Layers))
	}
	sorted := make([]*Layer, len(order))
	for i, j := range order {
		sorted[i] = g.byName[g.Layers[j].Name]
	}
	return sorted, nil
}

// Acyclic reports how many layers a topological sort orders, and whether
// that is all of them: a layer on a cycle, or downstream of one, is
// never ordered. It reads only the layers' names and inputs and leaves
// the graph as it is, so a verifier may ask it of a graph it must not
// change.
func (g *Graph) Acyclic() (sorted int, ok bool) {
	n := len(g.kahn())
	return n, n == len(g.Layers)
}

// kahn runs Kahn's algorithm, breaking ties by insertion order, and
// returns the order it reaches as positions in g.Layers. Layers are
// numbered by position, names are resolved once, and the dependents of
// each layer are kept in one flat (CSR) array. A name maps to the first
// layer carrying it, so duplicate names share one in-degree, as they
// share one name. An input that names no layer has no edge to release
// it: its consumer is never reached and the graph fails as a cycle.
func (g *Graph) kahn() []int32 {
	n := len(g.Layers)
	idx := make(map[string]int32, n)
	// One backing array for the per-layer integers. The order needs at
	// most n slots: a layer is queued at the start (no inputs) or when its
	// last input is released, never both.
	ints := make([]int32, 5*n+1)
	node, indeg, start := ints[:n], ints[n:2*n], ints[2*n:3*n+1]
	fill, order := ints[3*n+1:4*n+1], ints[4*n+1:4*n+1]
	for i, l := range g.Layers {
		j, ok := idx[l.Name]
		if !ok {
			j = int32(i)
			idx[l.Name] = j
		}
		node[i] = j
	}
	edges := 0
	for i, l := range g.Layers {
		for _, in := range l.Inputs {
			indeg[node[i]]++
			if p, ok := idx[in]; ok {
				start[p+1]++
				edges++
			}
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	dependents := make([]int32, edges)
	copy(fill, start[:n])
	for i, l := range g.Layers {
		for _, in := range l.Inputs {
			if p, ok := idx[in]; ok {
				dependents[fill[p]] = node[i]
				fill[p]++
			}
		}
	}
	for i := range g.Layers { // insertion order keeps sort stable
		if indeg[node[i]] == 0 {
			order = append(order, node[i])
		}
	}
	for h := 0; h < len(order); h++ {
		j := order[h]
		for _, d := range dependents[start[j]:start[j+1]] {
			indeg[d]--
			if indeg[d] == 0 {
				order = append(order, d)
			}
		}
	}
	return order
}

// Clone deep-copies the graph, including weights. The clone is
// un-finalized and must be Finalized before use.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Name:       g.Name,
		Framework:  g.Framework,
		Task:       g.Task,
		InputShape: g.InputShape,
		Outputs:    append([]string(nil), g.Outputs...),
		byName:     map[string]*Layer{},
	}
	for _, l := range g.Layers {
		nl := *l
		nl.Inputs = append([]string(nil), l.Inputs...)
		nl.Weights = map[string]*tensor.Tensor{}
		for k, w := range l.Weights {
			if w != nil {
				nl.Weights[k] = w.Clone()
			}
		}
		ng.Layers = append(ng.Layers, &nl)
		ng.byName[nl.Name] = &nl
	}
	return ng
}

// RemoveLayer deletes the named layer, rewiring its consumers to its
// (single) input. Removing the input layer or a multi-input layer is a
// structural error; graphs assembled from untrusted plans go through this
// error-returning path rather than Remove.
func (g *Graph) RemoveLayer(name string) error {
	l := g.byName[name]
	if l == nil {
		return nil
	}
	if l.Op == OpInput {
		return fmt.Errorf("graph: cannot remove the input layer")
	}
	if len(l.Inputs) != 1 {
		return fmt.Errorf("graph: cannot splice out multi-input layer %q", name)
	}
	parent := l.Inputs[0]
	for _, other := range g.Layers {
		for i, in := range other.Inputs {
			if in == name {
				other.Inputs[i] = parent
			}
		}
	}
	for i, out := range g.Outputs {
		if out == name {
			g.Outputs[i] = parent
		}
	}
	idx := -1
	for i, ll := range g.Layers {
		if ll == l {
			idx = i
			break
		}
	}
	g.Layers = append(g.Layers[:idx], g.Layers[idx+1:]...)
	delete(g.byName, name)
	g.finalized = false
	return nil
}

// Remove is RemoveLayer for optimization passes over graphs the caller
// built itself, where a splice failure is a programming bug.
func (g *Graph) Remove(name string) {
	if err := g.RemoveLayer(name); err != nil {
		panic(err) //rt:allow panicpath -- pass-authored graphs only; plan paths use RemoveLayer
	}
}
