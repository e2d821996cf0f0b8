// Package frameworks implements serialized model formats in the style of
// the four training frameworks the paper's model zoo spans — Caffe
// (prototxt + binary blobs), TensorFlow (graph-def), Darknet (cfg +
// weights) and PyTorch (state-dict manifest) — together with importers
// that parse them back into the common graph IR. The inference-engine
// builder consumes any of them, mirroring TensorRT's claim of supporting
// the most input frameworks (paper §I, point 2).
package frameworks

import (
	"bytes"
	"fmt"

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
	Arch    []byte // prototxt / graphdef / cfg / manifest
	Weights []byte
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
	layers, weights := g.Records()
	h := header{Name: g.Name, Task: g.Task, InputShape: g.InputShape, Outputs: g.Outputs}
	var arch []byte
	var err error
	switch f {
	case Caffe:
		arch, err = caffeArch(h, layers)
	case TensorFlow:
		arch, err = tfArch(h, layers)
	case Darknet:
		arch, err = darknetArch(h, layers)
	case PyTorch:
		arch, err = pyTorchArch(h, layers)
	default:
		err = fmt.Errorf("frameworks: unknown format %q", f)
	}
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
	var h header
	var layers []graph.LayerRecord
	switch m.Format {
	case Caffe:
		h, layers, err = parseCaffe(m.Arch)
	case TensorFlow:
		h, layers, err = parseTF(m.Arch)
	case Darknet:
		h, layers, err = parseDarknet(m.Arch)
	case PyTorch:
		h, layers, err = parsePyTorch(m.Arch)
	default:
		return nil, fmt.Errorf("frameworks: unknown format %q", m.Format)
	}
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
