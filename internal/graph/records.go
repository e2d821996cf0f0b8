package graph

import (
	"encoding/json"
	"fmt"
	"sort"

	"edgeinfer/internal/framed"
	"edgeinfer/internal/tensor"
)

// The record vocabulary: the one way a graph is written down. An engine
// plan's header carries LayerRecords and its weight section is
// WriteWeights' output; the framework exporters render LayerRecords into
// their own syntax, the importers parse back into them, and their
// weight payload is the same weight section. Records that arrive from
// outside the process are untrusted: FromRecords, ReadWeights and
// AttachWeight turn every malformed one into an error.

// MaxTensorElems bounds any deserialized tensor shape — input or weight
// — before anything is sized by it (the largest real tensor in the zoo,
// VGG-16's fc6, is ~103M elements).
const MaxTensorElems = 256 << 20

// maxWeightRecordBytes bounds one weight record's JSON.
const maxWeightRecordBytes = 1 << 20

// LayerRecord is the serialized form of one non-input layer.
type LayerRecord struct {
	Name     string
	Op       OpType
	Inputs   []string
	Conv     tensor.ConvParams
	Pool     tensor.PoolParams
	OutUnits int
	Alpha    float32
	LRNSize  int
	LRNBeta  float32
	LRNK     float32
}

// WeightRecord is one weight tensor: the JSON index entry of the weight
// section, plus the raw values that follow it on the wire.
type WeightRecord struct {
	Layer string
	Key   string
	Shape [4]int
	Data  []float32 `json:"-"`
}

// Records walks the graph into its serialized vocabulary: every
// non-input layer in graph order, and every materialized weight in layer
// order with each layer's keys sorted — ranging over the weight map
// directly would leak map iteration order into the bytes every consumer
// writes. Slices are shared with the graph, not copied.
func (g *Graph) Records() ([]LayerRecord, []WeightRecord) {
	var layers []LayerRecord
	var weights []WeightRecord
	for _, l := range g.Layers {
		if l.Op != OpInput {
			layers = append(layers, LayerRecord{
				Name: l.Name, Op: l.Op, Inputs: l.Inputs, Conv: l.Conv, Pool: l.Pool,
				OutUnits: l.OutUnits, Alpha: l.Alpha, LRNSize: l.LRNSize,
				LRNBeta: l.LRNBeta, LRNK: l.LRNK,
			})
		}
		keys := make([]string, 0, len(l.Weights))
		for key, t := range l.Weights {
			if t != nil {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			t := l.Weights[key]
			weights = append(weights, WeightRecord{Layer: l.Name, Key: key, Shape: t.Shape(), Data: t.Data})
		}
	}
	return layers, weights
}

// FromRecords assembles an unfinalized graph from untrusted records: the
// input shape is bounded and every layer goes through AddLayer's
// topology checks.
func FromRecords(name string, inputShape [4]int, layers []LayerRecord) (*Graph, error) {
	if _, err := shapeElems(inputShape); err != nil {
		return nil, fmt.Errorf("graph: input %w", err)
	}
	g := New(name, inputShape)
	for _, r := range layers {
		err := g.AddLayer(&Layer{
			Name: r.Name, Op: r.Op, Inputs: r.Inputs, Conv: r.Conv, Pool: r.Pool,
			OutUnits: r.OutUnits, Alpha: r.Alpha, LRNSize: r.LRNSize,
			LRNBeta: r.LRNBeta, LRNK: r.LRNK,
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// AttachWeight hangs a deserialized weight on its layer. A record naming
// a layer the graph lacks, or the input layer (which carries no weights),
// is an error.
func (g *Graph) AttachWeight(w WeightRecord) error {
	l := g.byName[w.Layer]
	if l == nil {
		return fmt.Errorf("graph: weight %q for unknown layer %q", w.Key, w.Layer)
	}
	if l.Op == OpInput {
		return fmt.Errorf("graph: weight %q for the input layer %q", w.Key, w.Layer)
	}
	l.Weights[w.Key] = &tensor.Tensor{N: w.Shape[0], C: w.Shape[1], H: w.Shape[2], W: w.Shape[3], Data: w.Data}
	return nil
}

// WriteWeights emits a weight section: a u32 record count, then per
// record its length-prefixed JSON index entry followed by the raw
// little-endian float32 values its shape announces.
func WriteWeights(w *framed.Writer, weights []WeightRecord) error {
	w.U32(uint32(len(weights)))
	for _, rec := range weights {
		rb, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("graph: marshal weight record %s/%s: %w", rec.Layer, rec.Key, err)
		}
		w.Bytes(rb)
		w.Float32s(rec.Data)
	}
	return nil
}

// ReadWeights decodes a weight section from an untrusted stream. The
// record count sizes nothing (a hostile one runs the stream dry); record
// lengths and shapes are bounded before any byte of them is read.
func ReadWeights(r *framed.Reader) ([]WeightRecord, error) {
	var weights []WeightRecord
	for n := r.U32(); n > 0; n-- {
		rb := r.Bytes("weight record", maxWeightRecordBytes)
		if r.Err() != nil {
			break
		}
		var rec WeightRecord
		if err := json.Unmarshal(rb, &rec); err != nil {
			return nil, fmt.Errorf("graph: unmarshal weight record: %w", err)
		}
		elems, err := shapeElems(rec.Shape)
		if err != nil {
			return nil, fmt.Errorf("graph: weight %s/%s %w", rec.Layer, rec.Key, err)
		}
		rec.Data = r.Float32s(elems)
		weights = append(weights, rec)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("graph: read weights: %w", err)
	}
	return weights, nil
}

// shapeElems returns a deserialized shape's element count, rejecting
// non-positive dimensions and anything past MaxTensorElems.
func shapeElems(s [4]int) (int64, error) {
	elems := int64(1)
	for _, d := range s {
		if d < 1 || int64(d) > MaxTensorElems {
			return 0, fmt.Errorf("shape %v invalid", s)
		}
		if elems *= int64(d); elems > MaxTensorElems {
			return 0, fmt.Errorf("shape %v exceeds %d elements", s, int64(MaxTensorElems))
		}
	}
	return elems, nil
}
