package frameworks

import (
	"fmt"
	"strconv"
	"strings"

	"edgeinfer/internal/graph"
)

// Caffe-style serialization: a prototxt network description plus a
// binary caffemodel-like weight payload. The prototxt emitter/parser
// covers the layer types the zoo's Caffe models use.

var caffeTypes = map[graph.OpType]string{
	graph.OpConv: "Convolution", graph.OpMaxPool: "Pooling",
	graph.OpAvgPool: "Pooling", graph.OpGlobalAvgPool: "Pooling",
	graph.OpReLU: "ReLU", graph.OpLeakyReLU: "ReLU", graph.OpSigmoid: "Sigmoid",
	graph.OpFC: "InnerProduct", graph.OpBatchNorm: "BatchNorm",
	graph.OpLRN: "LRN", graph.OpSoftmax: "Softmax", graph.OpAdd: "Eltwise",
	graph.OpConcat: "Concat", graph.OpUpsample: "Upsample",
	graph.OpDropout: "Dropout", graph.OpScale: "Scale", graph.OpFlatten: "Flatten",
}

func caffeArch(h header, rs []graph.LayerRecord) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "name: %q\n", h.Name)
	fmt.Fprintf(&b, "# task: %s\n", h.Task)
	fmt.Fprintf(&b, "input: \"data\"\ninput_dim: %d\ninput_dim: %d\ninput_dim: %d\ninput_dim: %d\n",
		h.InputShape[0], h.InputShape[1], h.InputShape[2], h.InputShape[3])
	for _, o := range h.Outputs {
		fmt.Fprintf(&b, "# output: %s\n", o)
	}
	for _, r := range rs {
		typ, ok := caffeTypes[r.Op]
		if !ok {
			return nil, fmt.Errorf("frameworks: caffe cannot express op %v (layer %s)", r.Op, r.Name)
		}
		fmt.Fprintf(&b, "layer {\n  name: %q\n  type: %q\n", r.Name, typ)
		for _, in := range r.Inputs {
			fmt.Fprintf(&b, "  bottom: %q\n", in)
		}
		fmt.Fprintf(&b, "  top: %q\n", r.Name)
		switch r.Op {
		case graph.OpConv:
			fmt.Fprintf(&b, "  convolution_param { num_output: %d kernel_size: %d stride: %d pad: %d group: %d }\n",
				r.Conv.OutC, r.Conv.Kernel, r.Conv.Stride, r.Conv.Pad, max(r.Conv.Groups, 1))
		case graph.OpMaxPool:
			fmt.Fprintf(&b, "  pooling_param { pool: MAX kernel_size: %d stride: %d pad: %d }\n",
				r.Pool.Kernel, r.Pool.Stride, r.Pool.Pad)
		case graph.OpAvgPool:
			fmt.Fprintf(&b, "  pooling_param { pool: AVE kernel_size: %d stride: %d pad: %d }\n",
				r.Pool.Kernel, r.Pool.Stride, r.Pool.Pad)
		case graph.OpGlobalAvgPool:
			fmt.Fprintf(&b, "  pooling_param { pool: AVE global_pooling: true }\n")
		case graph.OpFC:
			fmt.Fprintf(&b, "  inner_product_param { num_output: %d }\n", r.OutUnits)
		case graph.OpLRN:
			fmt.Fprintf(&b, "  lrn_param { local_size: %d alpha: %g beta: %g k: %g }\n",
				r.LRNSize, r.Alpha, r.LRNBeta, r.LRNK)
		case graph.OpLeakyReLU:
			fmt.Fprintf(&b, "  relu_param { negative_slope: %g }\n", r.Alpha)
		case graph.OpAdd:
			fmt.Fprintf(&b, "  eltwise_param { operation: SUM }\n")
		}
		b.WriteString("}\n")
	}
	return []byte(b.String()), nil
}

// parseCaffe parses the prototxt subset emitted above.
func parseCaffe(arch []byte) (header, []graph.LayerRecord, error) {
	p := &protoParser{lines: strings.Split(string(arch), "\n")}
	h := header{InputShape: [4]int{1, 3, 224, 224}}
	var rs []graph.LayerRecord
	dims := 0
	for !p.done() {
		line := strings.TrimSpace(p.next())
		switch {
		case strings.HasPrefix(line, "name:"):
			h.Name = unquote(line[5:])
		case strings.HasPrefix(line, "# task:"):
			h.Task = strings.TrimSpace(line[7:])
		case strings.HasPrefix(line, "# output:"):
			h.Outputs = append(h.Outputs, strings.TrimSpace(line[9:]))
		case strings.HasPrefix(line, "input_dim:"):
			v, _ := strconv.Atoi(strings.TrimSpace(line[10:]))
			if dims < 4 {
				h.InputShape[dims] = v
				dims++
			}
		case line == "layer {":
			r, err := p.parseLayer()
			if err != nil {
				return h, nil, err
			}
			rs = append(rs, r)
		}
	}
	return h, rs, nil
}

type protoParser struct {
	lines []string
	pos   int
}

func (p *protoParser) done() bool   { return p.pos >= len(p.lines) }
func (p *protoParser) next() string { s := p.lines[p.pos]; p.pos++; return s }

func (p *protoParser) parseLayer() (graph.LayerRecord, error) {
	var r graph.LayerRecord
	var typ string
	pooling := ""
	globalPool := false
	for !p.done() {
		line := strings.TrimSpace(p.next())
		switch {
		case line == "}":
			return finishCaffeLayer(r, typ, pooling, globalPool)
		case strings.HasPrefix(line, "name:"):
			r.Name = unquote(line[5:])
		case strings.HasPrefix(line, "type:"):
			typ = unquote(line[5:])
		case strings.HasPrefix(line, "bottom:"):
			r.Inputs = append(r.Inputs, unquote(line[7:]))
		case strings.HasPrefix(line, "convolution_param"):
			kv := parseInlineParams(line)
			r.Conv.OutC = kv.i("num_output")
			r.Conv.Kernel = kv.i("kernel_size")
			r.Conv.Stride = kv.i("stride")
			r.Conv.Pad = kv.i("pad")
			r.Conv.Groups = kv.i("group")
		case strings.HasPrefix(line, "pooling_param"):
			kv := parseInlineParams(line)
			pooling = kv.s("pool")
			r.Pool.Kernel = kv.i("kernel_size")
			r.Pool.Stride = kv.i("stride")
			r.Pool.Pad = kv.i("pad")
			globalPool = kv.s("global_pooling") == "true"
		case strings.HasPrefix(line, "inner_product_param"):
			r.OutUnits = parseInlineParams(line).i("num_output")
		case strings.HasPrefix(line, "lrn_param"):
			kv := parseInlineParams(line)
			r.LRNSize = kv.i("local_size")
			r.Alpha = kv.f("alpha")
			r.LRNBeta = kv.f("beta")
			r.LRNK = kv.f("k")
		case strings.HasPrefix(line, "relu_param"):
			r.Alpha = parseInlineParams(line).f("negative_slope")
		}
	}
	return r, fmt.Errorf("frameworks: unterminated caffe layer %q", r.Name)
}

func finishCaffeLayer(r graph.LayerRecord, typ, pooling string, globalPool bool) (graph.LayerRecord, error) {
	switch typ {
	case "Convolution":
		r.Op = graph.OpConv
	case "Pooling":
		switch {
		case globalPool:
			r.Op = graph.OpGlobalAvgPool
		case pooling == "AVE":
			r.Op = graph.OpAvgPool
		default:
			r.Op = graph.OpMaxPool
		}
	case "ReLU":
		if r.Alpha != 0 {
			r.Op = graph.OpLeakyReLU
		} else {
			r.Op = graph.OpReLU
		}
	case "Sigmoid":
		r.Op = graph.OpSigmoid
	case "InnerProduct":
		r.Op = graph.OpFC
	case "BatchNorm":
		r.Op = graph.OpBatchNorm
	case "LRN":
		r.Op = graph.OpLRN
	case "Softmax":
		r.Op = graph.OpSoftmax
	case "Eltwise":
		r.Op = graph.OpAdd
	case "Concat":
		r.Op = graph.OpConcat
	case "Upsample":
		r.Op = graph.OpUpsample
	case "Dropout":
		r.Op = graph.OpDropout
	case "Scale":
		r.Op = graph.OpScale
	case "Flatten":
		r.Op = graph.OpFlatten
	default:
		return r, fmt.Errorf("frameworks: unknown caffe layer type %q", typ)
	}
	return r, nil
}

// params is a flat key-value view of an inline proto message.
type params map[string]string

func (p params) i(k string) int {
	v, _ := strconv.Atoi(p[k])
	return v
}

func (p params) f(k string) float32 {
	v, _ := strconv.ParseFloat(p[k], 32)
	return float32(v)
}

func (p params) s(k string) string { return p[k] }

// parseInlineParams parses `foo_param { a: 1 b: 2 }` into a map.
func parseInlineParams(line string) params {
	out := params{}
	open := strings.Index(line, "{")
	close := strings.LastIndex(line, "}")
	if open < 0 || close < open {
		return out
	}
	fields := strings.Fields(line[open+1 : close])
	for i := 0; i+1 < len(fields); i += 2 {
		key := strings.TrimSuffix(fields[i], ":")
		out[key] = fields[i+1]
	}
	return out
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	return strings.Trim(s, `"`)
}
