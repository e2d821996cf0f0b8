package frameworks

import (
	"encoding/json"
	"fmt"

	"edgeinfer/internal/graph"
)

// TensorFlow-style serialization: a graph-def of typed nodes with
// attribute maps, JSON-encoded (standing in for the protobuf wire
// format), plus the shared binary weight payload.

type tfGraphDef struct {
	Name       string
	Task       string
	InputShape [4]int
	Outputs    []string
	Node       []tfNode
}

type tfNode struct {
	Name  string
	Op    string
	Input []string
	Attr  map[string]float64 `json:",omitempty"`
}

var tfOps = map[graph.OpType]string{
	graph.OpConv: "Conv2D", graph.OpMaxPool: "MaxPool", graph.OpAvgPool: "AvgPool",
	graph.OpGlobalAvgPool: "Mean", graph.OpReLU: "Relu", graph.OpLeakyReLU: "LeakyRelu",
	graph.OpSigmoid: "Sigmoid", graph.OpFC: "MatMul", graph.OpBatchNorm: "FusedBatchNorm",
	graph.OpLRN: "LRN", graph.OpSoftmax: "Softmax", graph.OpAdd: "AddN",
	graph.OpConcat: "ConcatV2", graph.OpUpsample: "ResizeNearestNeighbor",
	graph.OpDropout: "Identity", graph.OpScale: "Mul", graph.OpFlatten: "Reshape",
}

var tfOpsBack = func() map[string]graph.OpType {
	m := map[string]graph.OpType{}
	for k, v := range tfOps {
		m[v] = k
	}
	return m
}()

func tfArch(h header, rs []graph.LayerRecord) ([]byte, error) {
	def := tfGraphDef{Name: h.Name, Task: h.Task, InputShape: h.InputShape, Outputs: h.Outputs}
	for _, r := range rs {
		op, ok := tfOps[r.Op]
		if !ok {
			return nil, fmt.Errorf("frameworks: tensorflow cannot express op %v", r.Op)
		}
		n := tfNode{Name: r.Name, Op: op, Input: r.Inputs, Attr: map[string]float64{}}
		switch r.Op {
		case graph.OpConv:
			n.Attr["num_output"] = float64(r.Conv.OutC)
			n.Attr["ksize"] = float64(r.Conv.Kernel)
			n.Attr["strides"] = float64(r.Conv.Stride)
			n.Attr["padding"] = float64(r.Conv.Pad)
			n.Attr["groups"] = float64(max(r.Conv.Groups, 1))
		case graph.OpMaxPool, graph.OpAvgPool:
			n.Attr["ksize"] = float64(r.Pool.Kernel)
			n.Attr["strides"] = float64(r.Pool.Stride)
			n.Attr["padding"] = float64(r.Pool.Pad)
		case graph.OpFC:
			n.Attr["units"] = float64(r.OutUnits)
		case graph.OpLeakyReLU:
			n.Attr["alpha"] = float64(r.Alpha)
		case graph.OpLRN:
			n.Attr["depth_radius"] = float64(r.LRNSize)
			n.Attr["alpha"] = float64(r.Alpha)
			n.Attr["beta"] = float64(r.LRNBeta)
			n.Attr["bias"] = float64(r.LRNK)
		}
		def.Node = append(def.Node, n)
	}
	return json.MarshalIndent(def, "", " ")
}

func parseTF(arch []byte) (header, []graph.LayerRecord, error) {
	var def tfGraphDef
	if err := json.Unmarshal(arch, &def); err != nil {
		return header{}, nil, fmt.Errorf("frameworks: bad tensorflow graphdef: %w", err)
	}
	h := header{Name: def.Name, Task: def.Task, InputShape: def.InputShape, Outputs: def.Outputs}
	var rs []graph.LayerRecord
	for _, n := range def.Node {
		op, ok := tfOpsBack[n.Op]
		if !ok {
			return h, nil, fmt.Errorf("frameworks: unknown tensorflow op %q", n.Op)
		}
		r := graph.LayerRecord{Name: n.Name, Op: op, Inputs: n.Input}
		a := func(k string) float64 { return n.Attr[k] }
		switch op {
		case graph.OpConv:
			r.Conv.OutC = int(a("num_output"))
			r.Conv.Kernel = int(a("ksize"))
			r.Conv.Stride = int(a("strides"))
			r.Conv.Pad = int(a("padding"))
			r.Conv.Groups = int(a("groups"))
		case graph.OpMaxPool, graph.OpAvgPool:
			r.Pool.Kernel = int(a("ksize"))
			r.Pool.Stride = int(a("strides"))
			r.Pool.Pad = int(a("padding"))
		case graph.OpFC:
			r.OutUnits = int(a("units"))
		case graph.OpLeakyReLU:
			r.Alpha = float32(a("alpha"))
		case graph.OpLRN:
			r.LRNSize = int(a("depth_radius"))
			r.Alpha = float32(a("alpha"))
			r.LRNBeta = float32(a("beta"))
			r.LRNK = float32(a("bias"))
		}
		rs = append(rs, r)
	}
	return h, rs, nil
}
