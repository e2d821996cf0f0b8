// Package frameworks implements serialized model formats in the style of
// the four training frameworks the paper's model zoo spans — Caffe
// (prototxt + binary blobs), Darknet (cfg + weights), and TensorFlow
// (graph-def) and PyTorch (module manifest) as two dialects of one JSON
// codec — together with importers that parse them back into the common
// graph IR. The inference-engine builder consumes any of them, mirroring
// TensorRT's claim of supporting the most input frameworks (paper §I,
// point 2). Which record fields an op carries is stated once, in params;
// each format only names them.
package frameworks

import (
	"bytes"
	"fmt"
	"strconv"

	"edgeinfer/internal/framed"
	"edgeinfer/internal/graph"
)

// Format identifies a model serialization format.
type Format string

const (
	Caffe      Format = "caffe"
	TensorFlow Format = "tensorflow"
	Darknet    Format = "darknet"
	PyTorch    Format = "pytorch"
)

// Model is a serialized network: a text/JSON architecture description
// plus a binary weight payload (empty for timing-only graphs).
type Model struct {
	Format  Format
	Arch    []byte // prototxt / cfg / JSON node list
	Weights []byte
}

// codecs maps each format to its architecture renderer and parser.
var codecs = map[Format]struct {
	render func(header, []graph.LayerRecord) ([]byte, error)
	parse  func([]byte) (header, []graph.LayerRecord, error)
}{
	Caffe:      {caffeArch, parseCaffe},
	Darknet:    {darknetArch, parseDarknet},
	TensorFlow: {tensorFlow.render, tensorFlow.parse},
	PyTorch:    {pyTorch.render, pyTorch.parse},
}

// header carries graph-level metadata all formats need.
type header struct {
	Name       string
	Task       string
	InputShape [4]int
	Outputs    []string
}

// Export serializes a graph in the given framework's format. Every
// format is a rendering of the graph's record vocabulary: the layer
// records become the architecture text, and the weights travel as the
// plan's weight section in the graph's own sorted order, so one graph
// always exports to the same bytes. The payload is an unversioned
// scratch artefact: no magic, no compatibility promise.
func Export(g *graph.Graph, f Format) (Model, error) {
	c, ok := codecs[f]
	if !ok {
		return Model{}, fmt.Errorf("frameworks: unknown format %q", f)
	}
	layers, weights := g.Records()
	arch, err := c.render(header{Name: g.Name, Task: g.Task, InputShape: g.InputShape, Outputs: g.Outputs}, layers)
	if err != nil {
		return Model{}, err
	}
	var payload bytes.Buffer
	fw := framed.NewWriter(&payload)
	if err := graph.WriteWeights(fw, weights); err != nil {
		return Model{}, err
	}
	if err := fw.Flush(); err != nil {
		return Model{}, err
	}
	return Model{Format: f, Arch: arch, Weights: payload.Bytes()}, nil
}

// Import parses a serialized model back into the graph IR. The returned
// graph is finalized. Malformed input of any shape yields an error, not
// a panic: arch text and weight payload are untrusted data.
func Import(m Model) (g *graph.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("frameworks: malformed %s model: %v", m.Format, r)
		}
	}()
	c, ok := codecs[m.Format]
	if !ok {
		return nil, fmt.Errorf("frameworks: unknown format %q", m.Format)
	}
	h, layers, err := c.parse(m.Arch)
	if err != nil {
		return nil, err
	}
	if h.Name == "" {
		h.Name = "imported"
	}
	if g, err = graph.FromRecords(h.Name, h.InputShape, layers); err != nil {
		return nil, fmt.Errorf("frameworks: %w", err)
	}
	g.Framework, g.Task, g.Outputs = string(m.Format), h.Task, h.Outputs
	if len(m.Weights) > 0 { // empty for timing-only models
		weights, err := graph.ReadWeights(framed.NewReader(bytes.NewReader(m.Weights)))
		if err != nil {
			return nil, fmt.Errorf("frameworks: weight payload: %w", err)
		}
		for _, w := range weights {
			if err := g.AttachWeight(w); err != nil {
				return nil, fmt.Errorf("frameworks: weight payload: %w", err)
			}
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, fmt.Errorf("frameworks: imported graph invalid: %w", err)
	}
	if len(g.Layers) < 2 || len(g.Outputs) == 0 {
		return nil, fmt.Errorf("frameworks: imported %s model is empty", m.Format)
	}
	return g, nil
}

// A param is one numeric field of a layer record, under a format-neutral
// key each format maps to its own name. Exactly one of i and f is set.
type param struct {
	key string
	i   *int
	f   *float32
}

// params lists the fields r's op carries, in the order every format
// writes them. It is the one place that says which record fields belong
// to which op; exporters read through the pointers, importers write.
func params(r *graph.LayerRecord) []param {
	switch r.Op {
	case graph.OpConv:
		return []param{{key: "out", i: &r.Conv.OutC}, {key: "kernel", i: &r.Conv.Kernel},
			{key: "stride", i: &r.Conv.Stride}, {key: "pad", i: &r.Conv.Pad}, {key: "groups", i: &r.Conv.Groups}}
	case graph.OpMaxPool, graph.OpAvgPool:
		return []param{{key: "kernel", i: &r.Pool.Kernel}, {key: "stride", i: &r.Pool.Stride}, {key: "pad", i: &r.Pool.Pad}}
	case graph.OpFC:
		return []param{{key: "units", i: &r.OutUnits}}
	case graph.OpLeakyReLU:
		return []param{{key: "slope", f: &r.Alpha}}
	case graph.OpLRN:
		return []param{{key: "size", i: &r.LRNSize}, {key: "alpha", f: &r.Alpha},
			{key: "beta", f: &r.LRNBeta}, {key: "k", f: &r.LRNK}}
	}
	return nil
}

// String renders the field's value: shortest form, so a float32 reads
// back bit for bit.
func (p param) String() string {
	if p.i != nil {
		return strconv.Itoa(*p.i)
	}
	return strconv.FormatFloat(float64(*p.f), 'g', -1, 32)
}

// set parses s into the field. Text that does not parse stores zero, as
// a missing key does.
func (p param) set(s string) {
	if p.i != nil {
		*p.i, _ = strconv.Atoi(s)
		return
	}
	v, _ := strconv.ParseFloat(s, 32)
	*p.f = float32(v)
}

// invert maps a format's op names back to ops. A name several ops share
// (Caffe's "Pooling") goes to the lowest of them; the codec tells the
// others apart by the layer's settings.
func invert(names map[graph.OpType]string) map[string]graph.OpType {
	ops := make(map[string]graph.OpType, len(names))
	for op, name := range names {
		if prev, ok := ops[name]; !ok || op < prev {
			ops[name] = op
		}
	}
	return ops
}

// Native returns the framework format a zoo graph was trained in.
func Native(g *graph.Graph) Format {
	switch g.Framework {
	case "tensorflow":
		return TensorFlow
	case "darknet":
		return Darknet
	case "pytorch":
		return PyTorch
	default:
		return Caffe
	}
}
