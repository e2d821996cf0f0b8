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

var caffeOps = invert(caffeTypes)

// caffeMessages opens each op's inline parameter message, with the fixed
// fields that tell apart the ops sharing a layer type.
var caffeMessages = map[graph.OpType]string{
	graph.OpConv: "convolution_param {", graph.OpMaxPool: "pooling_param { pool: MAX",
	graph.OpAvgPool: "pooling_param { pool: AVE", graph.OpGlobalAvgPool: "pooling_param { pool: AVE global_pooling: true",
	graph.OpFC: "inner_product_param {", graph.OpLRN: "lrn_param {",
	graph.OpLeakyReLU: "relu_param {", graph.OpAdd: "eltwise_param { operation: SUM",
}

var caffeNames = map[string]string{
	"out": "num_output", "kernel": "kernel_size", "stride": "stride", "pad": "pad",
	"groups": "group", "units": "num_output", "slope": "negative_slope",
	"size": "local_size", "alpha": "alpha", "beta": "beta", "k": "k",
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
		if msg, ok := caffeMessages[r.Op]; ok {
			b.WriteString("  " + msg)
			for _, p := range params(&r) {
				fmt.Fprintf(&b, " %s: %s", caffeNames[p.key], p)
			}
			b.WriteString(" }\n")
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
	kv := map[string]string{} // every inline message's fields
	for !p.done() {
		line := strings.TrimSpace(p.next())
		switch {
		case line == "}":
			return finishCaffeLayer(r, typ, kv)
		case strings.HasPrefix(line, "name:"):
			r.Name = unquote(line[5:])
		case strings.HasPrefix(line, "type:"):
			typ = unquote(line[5:])
		case strings.HasPrefix(line, "bottom:"):
			r.Inputs = append(r.Inputs, unquote(line[7:]))
		case strings.Contains(line, "_param {"):
			parseInlineParams(line, kv)
		}
	}
	return r, fmt.Errorf("frameworks: unterminated caffe layer %q", r.Name)
}

// finishCaffeLayer resolves the layer type to an op and reads the op's
// parameters. "Pooling" and "ReLU" name several ops: caffeOps gives the
// lowest (max pool, plain ReLU), and the message fields pick the others.
func finishCaffeLayer(r graph.LayerRecord, typ string, kv map[string]string) (graph.LayerRecord, error) {
	op, ok := caffeOps[typ]
	if !ok {
		return r, fmt.Errorf("frameworks: unknown caffe layer type %q", typ)
	}
	switch {
	case typ == "Pooling" && kv["global_pooling"] == "true":
		op = graph.OpGlobalAvgPool
	case typ == "Pooling" && kv["pool"] == "AVE":
		op = graph.OpAvgPool
	case typ == "ReLU":
		if v, _ := strconv.ParseFloat(kv["negative_slope"], 32); v != 0 {
			op = graph.OpLeakyReLU
		}
	}
	r.Op = op
	for _, p := range params(&r) {
		p.set(kv[caffeNames[p.key]])
	}
	return r, nil
}

// parseInlineParams adds the fields of `foo_param { a: 1 b: 2 }` to kv.
func parseInlineParams(line string, kv map[string]string) {
	open := strings.Index(line, "{")
	close := strings.LastIndex(line, "}")
	if open < 0 || close < open {
		return
	}
	fields := strings.Fields(line[open+1 : close])
	for i := 0; i+1 < len(fields); i += 2 {
		kv[strings.TrimSuffix(fields[i], ":")] = fields[i+1]
	}
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	return strings.Trim(s, `"`)
}
