package core

import (
	"fmt"
	"math"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// EntropyCalibrator implements TensorRT's INT8 entropy calibration: for
// each layer it histograms the absolute activations and chooses the
// clipping range whose quantized distribution minimizes the KL
// divergence from the original — clipping rare outliers when doing so
// preserves more of the distribution's information.
type EntropyCalibrator struct {
	Images []*tensor.Tensor
	// Bins is the histogram resolution (default 2048, TensorRT's value).
	Bins int
}

// Ranges implements Calibrator.
func (c EntropyCalibrator) Ranges(g *graph.Graph) (map[string]float32, error) {
	if len(c.Images) == 0 {
		return nil, fmt.Errorf("core: entropy calibration needs at least one image")
	}
	bins := c.Bins
	if bins <= 0 {
		bins = 2048
	}
	// First pass: max-abs per layer to size the histograms.
	maxAbs, err := collectRanges(g, c.Images, func(vals []float32) float32 {
		var m float32
		for _, v := range vals {
			if a := abs32(v); a > m {
				m = a
			}
		}
		return m
	})
	if err != nil {
		return nil, err
	}
	// Second pass: histogram per layer.
	hists := map[string][]float64{}
	for _, img := range c.Images {
		acts, err := g.ExecuteAll(img)
		if err != nil {
			return nil, err
		}
		for name, t := range acts {
			h := hists[name]
			if h == nil {
				h = make([]float64, bins)
				hists[name] = h
			}
			m := maxAbs[name]
			if m <= 0 {
				continue
			}
			for _, v := range t.Data {
				idx := int(float64(abs32(v)) / float64(m) * float64(bins))
				if idx >= bins {
					idx = bins - 1
				}
				h[idx]++
			}
		}
	}
	out := make(map[string]float32, len(hists))
	for name, h := range hists {
		cut := bestKLCut(h)
		out[name] = maxAbs[name] * float32(cut) / float32(len(h))
		if out[name] <= 0 {
			out[name] = 1
		}
	}
	return out, nil
}

// bestKLCut scans candidate clipping bins and returns the one minimizing
// the KL divergence between the original distribution (clipped at the
// cut, outliers folded into the last bin) and its 128-level quantized
// reconstruction — the core of TensorRT's entropy calibrator.
func bestKLCut(hist []float64) int {
	const levels = 128
	bins := len(hist)
	best, bestCut := math.Inf(1), bins
	for cut := levels; cut <= bins; cut += levels / 2 {
		kl := klForCut(hist, cut, levels)
		if kl < best {
			best, bestCut = kl, cut
		}
	}
	return bestCut
}

// klForCut computes the KL divergence of quantizing hist[:cut] (with the
// tail mass folded into the last kept bin) to the given level count.
func klForCut(hist []float64, cut, levels int) float64 {
	if cut > len(hist) {
		cut = len(hist)
	}
	p := make([]float64, cut)
	copy(p, hist[:cut])
	for _, v := range hist[cut:] {
		p[cut-1] += v // fold clipped outliers
	}
	// Quantize: merge bins into `levels` groups, then spread each
	// group's mass uniformly over its nonzero members.
	q := make([]float64, cut)
	group := cut / levels
	if group < 1 {
		group = 1
	}
	for start := 0; start < cut; start += group {
		end := start + group
		if end > cut {
			end = cut
		}
		var mass float64
		nonzero := 0
		for i := start; i < end; i++ {
			mass += p[i]
			if p[i] > 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			continue
		}
		share := mass / float64(nonzero)
		for i := start; i < end; i++ {
			if p[i] > 0 {
				q[i] = share
			}
		}
	}
	// KL(p || q) over normalized distributions.
	var sumP, sumQ float64
	for i := range p {
		sumP += p[i]
		sumQ += q[i]
	}
	if sumP == 0 || sumQ == 0 {
		return math.Inf(1)
	}
	var kl float64
	for i := range p {
		if p[i] == 0 {
			continue
		}
		pi := p[i] / sumP
		qi := q[i] / sumQ
		if qi == 0 {
			return math.Inf(1)
		}
		kl += pi * math.Log(pi/qi)
	}
	return kl
}
