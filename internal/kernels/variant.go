// Package kernels models the pre-implemented CUDA kernel library that
// TensorRT's hardware-mapping step (paper Fig. 2, step 5) selects from.
// Each operator has several variants — tensor-core HMMA tiles of
// different shapes, Winograd transforms, plain FP32 CUDA-core kernels,
// depthwise specializations — with (a) an analytic latency on a simulated
// device and (b) a numeric implementation. (a) depends on the whole
// Variant and drives the tuner and all performance tables. (b) depends on
// the variant's Numerics projection alone (exec.go): the reduction tile,
// split-K, half-precision rounding and the fused ReLU decide where
// partial sums are cut, rounded and folded, while Family, TileM, TileN
// and layout change a latency and a kernel name, not an output bit.
// Differing reduction tiles are what make independently tuned engines
// produce different outputs on the same input, the paper's Finding 2;
// per-family numerics (Winograd's transformed-tile rounding, NHWC's
// reduction order) are ROADMAP item 2, and enter through Numerics.
package kernels

import (
	"fmt"

	"edgeinfer/internal/tensor"
)

// Family classifies kernel implementations.
type Family uint8

const (
	FamHMMAConv   Family = iota // tensor-core FP16 implicit GEMM convolution
	FamWinograd                 // tensor-core FP16 Winograd F(4x4,3x3) convolution
	FamCUDAConv                 // FP32 CUDA-core direct convolution
	FamDepthwise                // depthwise convolution specialization
	FamGEMM                     // fully-connected HMMA GEMM
	FamPool                     // max/avg pooling
	FamLRN                      // local response normalization
	FamActivation               // relu / leaky / sigmoid
	FamEltwise                  // elementwise add (residual)
	FamCopy                     // concat / reformat / upsample copies
	FamSoftmax
	FamSort // cub radix sort used by detection output (NMS)
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamHMMAConv:
		return "hmma-conv"
	case FamWinograd:
		return "winograd-conv"
	case FamCUDAConv:
		return "cuda-conv"
	case FamDepthwise:
		return "depthwise"
	case FamGEMM:
		return "gemm"
	case FamPool:
		return "pool"
	case FamLRN:
		return "lrn"
	case FamActivation:
		return "activation"
	case FamEltwise:
		return "eltwise"
	case FamCopy:
		return "copy"
	case FamSoftmax:
		return "softmax"
	case FamSort:
		return "sort"
	default:
		return "unknown"
	}
}

// ParseFamily is the inverse of Family.String. It exists for consumers
// that must recover the family from rendered identifiers — most notably
// core.ParseTimingKey, which turns timing-cache keys back into training
// rows for the learned latency predictor.
func ParseFamily(s string) (Family, bool) {
	for f := FamHMMAConv; f <= FamSort; f++ {
		if f.String() == s {
			return f, true
		}
	}
	return 0, false
}

// TensorCore reports whether the family issues HMMA/IMMA instructions —
// a feature the latency predictor uses to pick the relevant peak rate.
func (f Family) TensorCore() bool { return usesTensorCores(f) }

// Variant identifies one concrete kernel implementation.
type Variant struct {
	Family    Family
	TileM     int // output-pixel tile (implicit-GEMM M)
	TileN     int // output-channel tile (implicit-GEMM N)
	TileK     int // reduction tile (accumulation chunk)
	Precision tensor.Precision
	FusedAct  bool // activation fused into the epilogue
	NHWC      bool // weight/activation layout
	SplitK    int  // reduction split factor (1 = none); changes accumulation order
}

// SizeClass buckets the implicit-GEMM M dimension the way TensorRT's
// kernel names do (small / medium / large / xlarge).
func SizeClass(m int) string { return sizeClasses[sizeClass(m)] }

var sizeClasses = [...]string{"small", "medium", "large", "xlarge"}

// sizeClass is SizeClass as an index into sizeClasses.
func sizeClass(m int) uint8 {
	switch {
	case m <= 4096:
		return 0
	case m <= 32768:
		return 1
	case m <= 262144:
		return 2
	default:
		return 3
	}
}

// Name renders the kernel symbol in the style nvprof reports for
// TensorRT engines (paper Table XI), parameterized by the implicit-GEMM
// M of the layer the variant is bound to. The names of the library's own
// variants come from a table built at init; any other variant (one
// parsed from a foreign timing cache or a hostile plan) is rendered.
func (v Variant) Name(m int) string {
	if s, ok := menuNames[nameKeyOf(v, m)]; ok {
		return s
	}
	return v.render(m)
}

// nameKey holds every input of render: the fields a name shows and the
// size class of M. Variants that differ elsewhere (tile K, split-K,
// precision) share a name, and so share an entry.
type nameKey struct {
	fam          Family
	act, nhwc    bool
	class        uint8
	tileM, tileN int
}

func nameKeyOf(v Variant, m int) nameKey {
	return nameKey{v.Family, v.FusedAct, v.NHWC, sizeClass(m), v.TileM, v.TileN}
}

// menuNames holds the name of every variant menuVariants lists, in every
// size class. The tuner names each candidate it plans, so a rendering
// per candidate would dominate a build's allocations. The table is fixed
// at init: a lazily filled cache would grow without bound on the
// variants of untrusted timing-cache keys.
var menuNames map[nameKey]string

// init, not a variable initializer: listing the menu plans launches, and
// planning names them.
func init() {
	menuNames = map[nameKey]string{}
	interned := map[string]string{}
	for _, v := range menuVariants() {
		for _, m := range [...]int{1, 4097, 32769, 262145} { // one M per size class
			s := v.render(m)
			if t, ok := interned[s]; ok {
				s = t
			} else {
				interned[s] = s
			}
			menuNames[nameKeyOf(v, m)] = s
		}
	}
}

// menuVariants lists every variant ConvCandidates, GEMMCandidates,
// UnoptimizedConv, PlanSimple and PlanSort can emit.
func menuVariants() []Variant {
	var menu []Variant
	// One shape per menu branch: depthwise; deep enough for split-K with
	// Winograd eligible; shallow and large.
	convs := []ConvDims{
		{Batch: 1, InC: 8, H: 8, W: 8, OutC: 8, OutH: 8, OutW: 8, Kernel: 3, Stride: 1, Groups: 8},
		{Batch: 1, InC: 512, H: 7, W: 7, OutC: 512, OutH: 7, OutW: 7, Kernel: 3, Stride: 1, Groups: 1},
		{Batch: 1, InC: 64, H: 224, W: 224, OutC: 64, OutH: 224, OutW: 224, Kernel: 1, Stride: 1, Groups: 1},
	}
	fcs := []ConvDims{
		{Batch: 1, InC: 8192, H: 1, W: 1, OutC: 1000, OutH: 1, OutW: 1, Kernel: 1, Stride: 1, Groups: 1},
		{Batch: 1, InC: 256, H: 1, W: 1, OutC: 10, OutH: 1, OutW: 1, Kernel: 1, Stride: 1, Groups: 1},
	}
	for prec := tensor.FP32; prec <= tensor.INT8; prec++ {
		for _, d := range convs {
			menu = append(menu, ConvCandidates(d, prec)...)
		}
		for _, d := range fcs {
			menu = append(menu, GEMMCandidates(d, prec)...)
		}
		for fam := FamHMMAConv; fam <= FamSort; fam++ {
			menu = append(menu, PlanSimple(fam, prec, 1, 1, 0).V)
		}
	}
	return append(menu, UnoptimizedConv(), PlanSort(1).V)
}

// render formats the name of any variant.
func (v Variant) render(m int) string {
	layout := "nchw"
	if v.NHWC {
		layout = "nhwc"
	}
	act := ""
	if v.FusedAct {
		act = "relu_"
	}
	switch v.Family {
	case FamHMMAConv:
		return fmt.Sprintf("trt_volta_h884cudnn_%dx%d_ldg8_%sexp_%s_%s_tn_v1",
			v.TileM, v.TileN, act, SizeClass(m), layout)
	case FamWinograd:
		return fmt.Sprintf("trt_volta_h884cudnn_winograd_fp16_%dx%d_ldg1_%stile148t_nt_v1",
			v.TileM, v.TileN, act)
	case FamCUDAConv:
		return fmt.Sprintf("trt_volta_scudnn_%dx%d_%ssmall_nn_v1", v.TileM, v.TileN, act)
	case FamDepthwise:
		return "cuDepthwise::depthwiseConvHMMAPrefetchKernel"
	case FamGEMM:
		return fmt.Sprintf("trt_volta_h884gemm_%dx%d_ldg8_tn_v1", v.TileM, v.TileN)
	case FamPool:
		return "poolingForward_NCHW_kernel"
	case FamLRN:
		return "lrn::lrnForward_NChWH2"
	case FamActivation:
		return "activationForward_kernel"
	case FamEltwise:
		return "eltwiseSum_kernel"
	case FamCopy:
		return "copyPackedKernel"
	case FamSoftmax:
		return "softmaxForward_kernel"
	case FamSort:
		return "cub::DeviceSegmentedRadixSortKernel"
	default:
		return "unknown_kernel"
	}
}

// hmmaTiles is the tensor-core tile menu (M x N x K). The K step is the
// accumulation chunk: variants with different K round partial sums at
// different boundaries, so engines that picked different tiles compute
// (slightly) different outputs.
var hmmaTiles = [][3]int{{64, 64, 32}, {128, 64, 64}, {256, 64, 64}, {128, 128, 32}, {256, 128, 64}}

// WeightBytesFactor returns the engine-stored weight size multiplier of
// the variant relative to the layer's FP32 weight size. Direct FP16
// kernels store half-size weights; Winograd kernels store the 6x6
// transformed filters (36/9 = 4x the coefficients, in FP16 -> 2x);
// FP32 kernels keep full-size weights.
func (v Variant) WeightBytesFactor() float64 {
	switch v.Family {
	case FamWinograd:
		return 2.0
	case FamCUDAConv:
		return 1.0
	default:
		if v.Precision == tensor.FP16 {
			return 0.5
		}
		if v.Precision == tensor.INT8 {
			return 0.25
		}
		return 1.0
	}
}
