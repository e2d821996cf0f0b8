package kernels

import (
	"fmt"
	"testing"

	"edgeinfer/internal/tensor"
)

// frozenName is Variant.Name as it stood when it rendered every call,
// frozen verbatim.
func frozenName(v Variant, m int) string {
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

// Every variant the library's menus emit, in every size class, has a
// table entry holding the name the frozen renderer gives it. A variant
// outside the menus is named as before, from the table when it shares
// every field a name shows with a menu variant, else by rendering, and
// naming it never grows the table.
func TestNameTableMatchesRenderer(t *testing.T) {
	ms := []int{1, 4096, 4097, 32768, 32769, 262144, 262145, 1 << 30}
	menu := menuVariants()
	// The menus the table claims to cover, at shapes the init did not use.
	for prec := tensor.FP32; prec <= tensor.INT8; prec++ {
		for _, d := range []ConvDims{
			{Batch: 4, InC: 32, H: 9, W: 9, OutC: 32, OutH: 9, OutW: 9, Kernel: 5, Stride: 2, Groups: 32},
			{Batch: 2, InC: 256, H: 28, W: 28, OutC: 128, OutH: 28, OutW: 28, Kernel: 3, Stride: 1, Groups: 1},
			{Batch: 1, InC: 4096, H: 1, W: 1, OutC: 4096, OutH: 1, OutW: 1, Kernel: 1, Stride: 1, Groups: 1},
		} {
			menu = append(menu, ConvCandidates(d, prec)...)
			menu = append(menu, GEMMCandidates(d, prec)...)
		}
	}
	for _, v := range menu {
		for _, m := range ms {
			s, ok := menuNames[nameKeyOf(v, m)]
			if !ok {
				t.Fatalf("menu variant %+v at M=%d is not in the name table", v, m)
			}
			if want := frozenName(v, m); s != want || v.Name(m) != want {
				t.Fatalf("%+v at M=%d: table %q, Name %q, frozen renderer %q", v, m, s, v.Name(m), want)
			}
		}
	}
	before := len(menuNames)
	foreign := []struct {
		v      Variant
		shared bool // shares its table entry with a menu variant
	}{
		{Variant{Family: FamHMMAConv, TileM: 128, TileN: 64, TileK: 7, SplitK: 3, Precision: tensor.INT8, FusedAct: true, NHWC: true}, true},
		{Variant{Family: FamHMMAConv, TileM: 96, TileN: 48, TileK: 16, Precision: tensor.FP16, NHWC: true}, false},
		{Variant{Family: FamHMMAConv, TileM: 128, TileN: 64, TileK: 64, Precision: tensor.FP16, FusedAct: true}, false}, // a menu tile in NCHW
		{Variant{Family: FamGEMM, TileM: 1, TileN: 2, TileK: 3, SplitK: 9}, false},
		{Variant{Family: Family(200)}, false},
	}
	for _, f := range foreign {
		for _, m := range ms {
			if _, ok := menuNames[nameKeyOf(f.v, m)]; ok != f.shared {
				t.Fatalf("%+v at M=%d: in the table %v, want %v", f.v, m, ok, f.shared)
			}
			if got, want := f.v.Name(m), frozenName(f.v, m); got != want {
				t.Fatalf("%+v at M=%d: %q, frozen renderer %q", f.v, m, got, want)
			}
		}
	}
	if len(menuNames) != before {
		t.Fatalf("naming foreign variants grew the table from %d to %d", before, len(menuNames))
	}
}

// Naming a menu variant allocates nothing: the tuner names every
// candidate it plans.
func TestMenuNameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	d := ConvDims{Batch: 1, InC: 256, H: 14, W: 14, OutC: 256, OutH: 14, OutW: 14, Kernel: 3, Stride: 1, Groups: 1}
	menu := ConvCandidates(d, tensor.FP16)
	var sink int
	if n := testing.AllocsPerRun(20, func() {
		for _, v := range menu {
			sink += len(PlanConv(v, d).Symbol)
		}
	}); n != 0 {
		t.Fatalf("planning the menu allocates %v times, want 0", n)
	}
	_ = sink
}
