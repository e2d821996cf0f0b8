package frameworks

import (
	"encoding/json"
	"fmt"

	"edgeinfer/internal/graph"
)

// PyTorch-style serialization: a traced-module manifest (the structure a
// torch.jit trace plus state_dict carries), JSON-encoded, with the shared
// binary tensor payload standing in for the zip-of-tensors format.

type ptManifest struct {
	ModelName  string
	Task       string
	InputShape [4]int
	Outputs    []string
	Modules    []ptModule
}

type ptModule struct {
	Name   string
	Type   string
	Inputs []string
	Args   map[string]float64 `json:",omitempty"`
}

var ptTypes = map[graph.OpType]string{
	graph.OpConv: "Conv2d", graph.OpMaxPool: "MaxPool2d", graph.OpAvgPool: "AvgPool2d",
	graph.OpGlobalAvgPool: "AdaptiveAvgPool2d", graph.OpReLU: "ReLU",
	graph.OpLeakyReLU: "LeakyReLU", graph.OpSigmoid: "Sigmoid", graph.OpFC: "Linear",
	graph.OpBatchNorm: "BatchNorm2d", graph.OpLRN: "LocalResponseNorm",
	graph.OpSoftmax: "Softmax", graph.OpAdd: "add", graph.OpConcat: "cat",
	graph.OpUpsample: "Upsample", graph.OpDropout: "Dropout", graph.OpScale: "mul",
	graph.OpFlatten: "Flatten",
}

var ptTypesBack = func() map[string]graph.OpType {
	m := map[string]graph.OpType{}
	for k, v := range ptTypes {
		m[v] = k
	}
	return m
}()

func pyTorchArch(h header, rs []graph.LayerRecord) ([]byte, error) {
	man := ptManifest{ModelName: h.Name, Task: h.Task, InputShape: h.InputShape, Outputs: h.Outputs}
	for _, r := range rs {
		typ, ok := ptTypes[r.Op]
		if !ok {
			return nil, fmt.Errorf("frameworks: pytorch cannot express op %v", r.Op)
		}
		mod := ptModule{Name: r.Name, Type: typ, Inputs: r.Inputs, Args: map[string]float64{}}
		switch r.Op {
		case graph.OpConv:
			mod.Args["out_channels"] = float64(r.Conv.OutC)
			mod.Args["kernel_size"] = float64(r.Conv.Kernel)
			mod.Args["stride"] = float64(r.Conv.Stride)
			mod.Args["padding"] = float64(r.Conv.Pad)
			mod.Args["groups"] = float64(max(r.Conv.Groups, 1))
		case graph.OpMaxPool, graph.OpAvgPool:
			mod.Args["kernel_size"] = float64(r.Pool.Kernel)
			mod.Args["stride"] = float64(r.Pool.Stride)
			mod.Args["padding"] = float64(r.Pool.Pad)
		case graph.OpFC:
			mod.Args["out_features"] = float64(r.OutUnits)
		case graph.OpLeakyReLU:
			mod.Args["negative_slope"] = float64(r.Alpha)
		case graph.OpLRN:
			mod.Args["size"] = float64(r.LRNSize)
			mod.Args["alpha"] = float64(r.Alpha)
			mod.Args["beta"] = float64(r.LRNBeta)
			mod.Args["k"] = float64(r.LRNK)
		}
		man.Modules = append(man.Modules, mod)
	}
	return json.MarshalIndent(man, "", " ")
}

func parsePyTorch(arch []byte) (header, []graph.LayerRecord, error) {
	var man ptManifest
	if err := json.Unmarshal(arch, &man); err != nil {
		return header{}, nil, fmt.Errorf("frameworks: bad pytorch manifest: %w", err)
	}
	h := header{Name: man.ModelName, Task: man.Task, InputShape: man.InputShape, Outputs: man.Outputs}
	var rs []graph.LayerRecord
	for _, mod := range man.Modules {
		op, ok := ptTypesBack[mod.Type]
		if !ok {
			return h, nil, fmt.Errorf("frameworks: unknown pytorch module %q", mod.Type)
		}
		r := graph.LayerRecord{Name: mod.Name, Op: op, Inputs: mod.Inputs}
		a := func(k string) float64 { return mod.Args[k] }
		switch op {
		case graph.OpConv:
			r.Conv.OutC = int(a("out_channels"))
			r.Conv.Kernel = int(a("kernel_size"))
			r.Conv.Stride = int(a("stride"))
			r.Conv.Pad = int(a("padding"))
			r.Conv.Groups = int(a("groups"))
		case graph.OpMaxPool, graph.OpAvgPool:
			r.Pool.Kernel = int(a("kernel_size"))
			r.Pool.Stride = int(a("stride"))
			r.Pool.Pad = int(a("padding"))
		case graph.OpFC:
			r.OutUnits = int(a("out_features"))
		case graph.OpLeakyReLU:
			r.Alpha = float32(a("negative_slope"))
		case graph.OpLRN:
			r.LRNSize = int(a("size"))
			r.Alpha = float32(a("alpha"))
			r.LRNBeta = float32(a("beta"))
			r.LRNK = float32(a("k"))
		}
		rs = append(rs, r)
	}
	return h, rs, nil
}
