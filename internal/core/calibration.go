package core

import (
	"fmt"
	"math"
	"sort"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// INT8 calibration. TensorRT's INT8 mode needs per-tensor activation
// dynamic ranges collected by running a calibration set through the
// FP32 network (the paper's optimization step 4 covers "8 bit integers";
// its experiments use FP16 engines, so this path is an extension
// reproducing the full quantization pipeline).

// Calibrator produces per-layer activation scales (the symmetric INT8
// step size) for a finalized FP32 graph.
type Calibrator interface {
	// Ranges returns layer name -> activation max-abs range.
	Ranges(g *graph.Graph) (map[string]float32, error)
}

// PercentileCalibrator clips each layer's range to the given percentile
// of absolute activations (robust to outliers, like TensorRT's entropy
// calibrator in effect). Pct 100 keeps the maximum absolute activation,
// TensorRT's "legacy" max-abs calibration.
type PercentileCalibrator struct {
	Images []*tensor.Tensor
	Pct    float64 // e.g. 99.9
}

// Ranges implements Calibrator.
func (c PercentileCalibrator) Ranges(g *graph.Graph) (map[string]float32, error) {
	pct := c.Pct
	if pct <= 0 || pct > 100 {
		pct = 99.9
	}
	return collectRanges(g, c.Images, func(vals []float32) float32 {
		abs := make([]float64, len(vals))
		for i, v := range vals {
			abs[i] = float64(abs32(v))
		}
		sort.Float64s(abs)
		idx := int(pct / 100 * float64(len(abs)-1))
		return float32(abs[idx])
	})
}

// collectRanges runs the calibration images through the reference
// executor, gathering every layer's activations and reducing them.
func collectRanges(g *graph.Graph, images []*tensor.Tensor, reduce func([]float32) float32) (map[string]float32, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("core: calibration needs at least one image")
	}
	acc := map[string][]float32{}
	for _, img := range images {
		acts, err := g.ExecuteAll(img)
		if err != nil {
			return nil, fmt.Errorf("core: calibration pass: %w", err)
		}
		for name, t := range acts {
			acc[name] = append(acc[name], t.Data...)
		}
	}
	out := make(map[string]float32, len(acc))
	for name, vals := range acc {
		r := reduce(vals)
		if r <= 0 || math.IsNaN(float64(r)) {
			r = 1
		}
		out[name] = r
	}
	return out, nil
}

// fakeQuantInto writes t's INT8 round trip at scale into q (resized, every element overwritten).
func fakeQuantInto(t *tensor.Tensor, scale float32, q *tensor.Tensor) {
	q.Resize(t.N, t.C, t.H, t.W)
	for i, v := range t.Data {
		q.Data[i] = tensor.DequantizeINT8(tensor.QuantizeINT8(v, scale), scale)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
