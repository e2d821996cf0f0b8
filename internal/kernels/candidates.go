package kernels

import "edgeinfer/internal/tensor"

// ConvCandidates enumerates the kernel variants TensorRT's tactic
// selection would consider for a convolution of the given dimensions at
// the given engine precision. The menu is the heart of the paper's
// non-determinism: several candidates are usually within measurement
// noise of each other, so the timing-based tuner's choice varies across
// builds.
func ConvCandidates(d ConvDims, prec tensor.Precision) []Variant {
	g := d.Groups
	if g == 0 {
		g = 1
	}
	if g == d.InC && g > 1 {
		// Depthwise convolutions have one specialized kernel plus the
		// generic FP32 fallback.
		return []Variant{
			{Family: FamDepthwise, TileM: 128, TileN: 8, TileK: 16, Precision: prec, FusedAct: true, NHWC: true},
			fallbackFP32(),
		}
	}
	// Room for every tile with its split-K sibling, two Winograd tiles
	// and the fallback: the menu is built once per layer.
	out := make([]Variant, 0, 2*len(hmmaTiles)+3)
	if prec == tensor.FP16 || prec == tensor.INT8 {
		for _, t := range hmmaTiles {
			v := Variant{Family: FamHMMAConv, TileM: t[0], TileN: t[1], TileK: t[2],
				Precision: prec, FusedAct: true, NHWC: true}
			out = append(out, v)
			if d.K() > 2048 {
				// Deep reductions offer a split-K tactic: more blocks,
				// different accumulation order.
				v2 := v
				v2.SplitK = 2
				out = append(out, v2)
			}
		}
		// Winograd is offered for small-spatial 3x3 stride-1 layers,
		// where its weight-traffic cost can pay for the FLOP reduction.
		if d.Kernel == 3 && d.Stride == 1 && g == 1 && d.M() <= 8192 {
			for _, t := range [][2]int{{128, 128}, {256, 64}} {
				out = append(out, Variant{Family: FamWinograd, TileM: t[0], TileN: t[1], TileK: 64,
					Precision: tensor.FP16, FusedAct: true})
			}
		}
	}
	out = append(out, fallbackFP32())
	return out
}

// GEMMCandidates enumerates fully-connected tactics.
func GEMMCandidates(d ConvDims, prec tensor.Precision) []Variant {
	out := make([]Variant, 0, 2*3+1)
	if prec == tensor.FP16 || prec == tensor.INT8 {
		for _, t := range [][3]int{{64, 64, 32}, {128, 64, 64}, {128, 128, 128}} {
			v := Variant{Family: FamGEMM, TileM: t[0], TileN: t[1], TileK: t[2],
				Precision: prec, NHWC: true}
			out = append(out, v)
			if d.K() > 4096 {
				v2 := v
				v2.SplitK = 2
				out = append(out, v2)
			}
		}
	}
	out = append(out, Variant{Family: FamGEMM, TileM: 128, TileN: 64, TileK: 32, Precision: tensor.FP32})
	return out
}

// fallbackFP32 is the generic CUDA-core convolution every layer can run.
func fallbackFP32() Variant {
	return Variant{Family: FamCUDAConv, TileM: 128, TileN: 64, TileK: 32, Precision: tensor.FP32, FusedAct: true}
}

// UnoptimizedConv is the kernel the un-optimized framework path uses: the
// generic FP32 kernel without fused activation.
func UnoptimizedConv() Variant {
	v := fallbackFP32()
	v.FusedAct = false
	return v
}
