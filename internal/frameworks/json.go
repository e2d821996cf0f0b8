package frameworks

import (
	"encoding/json"
	"fmt"

	"edgeinfer/internal/graph"
)

// TensorFlow and PyTorch serialize through one JSON codec: a node list
// standing in for TensorFlow's graph-def protobuf and for a traced
// PyTorch module's manifest, plus the shared binary weight payload. A
// dialect is only its op-type names and parameter names.

type jsonDialect struct {
	format Format
	ops    map[graph.OpType]string
	back   map[string]graph.OpType
	names  map[string]string // params key -> attribute name
}

type jsonModel struct {
	Name       string
	Task       string
	InputShape [4]int
	Outputs    []string
	Nodes      []jsonNode
}

type jsonNode struct {
	Name   string
	Op     string
	Inputs []string
	Attr   map[string]json.Number `json:",omitempty"`
}

func newDialect(f Format, ops map[graph.OpType]string, names map[string]string) *jsonDialect {
	return &jsonDialect{format: f, ops: ops, back: invert(ops), names: names}
}

var tensorFlow = newDialect(TensorFlow, map[graph.OpType]string{
	graph.OpConv: "Conv2D", graph.OpMaxPool: "MaxPool", graph.OpAvgPool: "AvgPool",
	graph.OpGlobalAvgPool: "Mean", graph.OpReLU: "Relu", graph.OpLeakyReLU: "LeakyRelu",
	graph.OpSigmoid: "Sigmoid", graph.OpFC: "MatMul", graph.OpBatchNorm: "FusedBatchNorm",
	graph.OpLRN: "LRN", graph.OpSoftmax: "Softmax", graph.OpAdd: "AddN",
	graph.OpConcat: "ConcatV2", graph.OpUpsample: "ResizeNearestNeighbor",
	graph.OpDropout: "Identity", graph.OpScale: "Mul", graph.OpFlatten: "Reshape",
}, map[string]string{
	"out": "num_output", "kernel": "ksize", "stride": "strides", "pad": "padding",
	"groups": "groups", "units": "units", "slope": "alpha",
	"size": "depth_radius", "alpha": "alpha", "beta": "beta", "k": "bias",
})

var pyTorch = newDialect(PyTorch, map[graph.OpType]string{
	graph.OpConv: "Conv2d", graph.OpMaxPool: "MaxPool2d", graph.OpAvgPool: "AvgPool2d",
	graph.OpGlobalAvgPool: "AdaptiveAvgPool2d", graph.OpReLU: "ReLU",
	graph.OpLeakyReLU: "LeakyReLU", graph.OpSigmoid: "Sigmoid", graph.OpFC: "Linear",
	graph.OpBatchNorm: "BatchNorm2d", graph.OpLRN: "LocalResponseNorm",
	graph.OpSoftmax: "Softmax", graph.OpAdd: "add", graph.OpConcat: "cat",
	graph.OpUpsample: "Upsample", graph.OpDropout: "Dropout", graph.OpScale: "mul",
	graph.OpFlatten: "Flatten",
}, map[string]string{
	"out": "out_channels", "kernel": "kernel_size", "stride": "stride", "pad": "padding",
	"groups": "groups", "units": "out_features", "slope": "negative_slope",
	"size": "size", "alpha": "alpha", "beta": "beta", "k": "k",
})

func (d *jsonDialect) render(h header, rs []graph.LayerRecord) ([]byte, error) {
	doc := jsonModel{Name: h.Name, Task: h.Task, InputShape: h.InputShape, Outputs: h.Outputs}
	for _, r := range rs {
		op, ok := d.ops[r.Op]
		if !ok {
			return nil, fmt.Errorf("frameworks: %s cannot express op %v", d.format, r.Op)
		}
		n := jsonNode{Name: r.Name, Op: op, Inputs: r.Inputs, Attr: map[string]json.Number{}}
		for _, p := range params(&r) {
			n.Attr[d.names[p.key]] = json.Number(p.String())
		}
		doc.Nodes = append(doc.Nodes, n)
	}
	return json.MarshalIndent(doc, "", " ")
}

func (d *jsonDialect) parse(arch []byte) (header, []graph.LayerRecord, error) {
	var doc jsonModel
	if err := json.Unmarshal(arch, &doc); err != nil {
		return header{}, nil, fmt.Errorf("frameworks: bad %s model: %w", d.format, err)
	}
	h := header{Name: doc.Name, Task: doc.Task, InputShape: doc.InputShape, Outputs: doc.Outputs}
	rs := make([]graph.LayerRecord, len(doc.Nodes))
	for i, n := range doc.Nodes {
		op, ok := d.back[n.Op]
		if !ok {
			return h, nil, fmt.Errorf("frameworks: unknown %s op %q", d.format, n.Op)
		}
		rs[i] = graph.LayerRecord{Name: n.Name, Op: op, Inputs: n.Inputs}
		for _, p := range params(&rs[i]) {
			p.set(string(n.Attr[d.names[p.key]]))
		}
	}
	return h, rs, nil
}
