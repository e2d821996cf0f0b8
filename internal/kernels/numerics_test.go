package kernels

import (
	"fmt"
	"math"
	"testing"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/tensor"
)

// Numerics is what core.Engine.SameNumerics trusts: variants that project
// to the same value must compute the same bits, and every field of the
// projection must be able to change one. The first is a type-level fact
// (nothing below ExecConv[Into]/ExecFC[Into] can see the Variant); the
// tests below hold both against the running kernels.

// numericTwin redraws every field of v that Numerics drops (Family,
// TileM, TileN, NHWC) and moves the ones it coarsens (FP16 ↔ INT8 both
// round to half; any SplitK above 1 is "split") without leaving v's
// projection.
func numericTwin(src *fixrand.Source, v Variant, fams []Family) Variant {
	tiles := []int{16, 32, 64, 128, 256}
	w := v
	for w.Family == v.Family {
		w.Family = fams[src.Intn(len(fams))]
	}
	for w.TileM == v.TileM {
		w.TileM = tiles[src.Intn(len(tiles))]
	}
	for w.TileN == v.TileN {
		w.TileN = tiles[src.Intn(len(tiles))]
	}
	w.NHWC = !v.NHWC
	switch v.Precision {
	case tensor.FP16:
		w.Precision = tensor.INT8
	case tensor.INT8:
		w.Precision = tensor.FP16
	}
	if v.SplitK > 1 {
		w.SplitK = v.SplitK%4 + 2 // 2 → 4, 4 → 2, 3 → 5
	} else {
		w.SplitK = 1 - v.SplitK // 0 ↔ 1
	}
	return w
}

func drawVariant(src *fixrand.Source, fams []Family) Variant {
	return Variant{
		Family:    fams[src.Intn(len(fams))],
		TileM:     []int{32, 64, 128}[src.Intn(3)],
		TileN:     []int{32, 64, 128}[src.Intn(3)],
		TileK:     []int{0, 1, 9, 18, 32, 64, 288}[src.Intn(7)],
		Precision: []tensor.Precision{tensor.FP32, tensor.FP16, tensor.INT8}[src.Intn(3)],
		FusedAct:  src.Intn(2) == 0,
		NHWC:      src.Intn(2) == 0,
		SplitK:    src.Intn(5),
	}
}

// TestEqualNumericsBitIdentical: over the shape sweep of
// TestParallelConvBitIdentical (groups, depthwise, stride 2, 1×1, pad >
// k/2) and the FC shapes, variant pairs drawn to agree in Numerics and to
// differ in everything else produce the same bits at 1 and 2 workers.
func TestEqualNumericsBitIdentical(t *testing.T) {
	const pairs = 8
	src := fixrand.NewKeyed("kernels/equal-numerics")
	defer SetWorkers(SetWorkers(1))
	// twinsAgree draws variant pairs and holds exec to one result over
	// both variants × both worker counts.
	twinsAgree := func(label string, fams []Family, exec func(Variant) *tensor.Tensor) {
		for i := 0; i < pairs; i++ {
			v := drawVariant(src, fams)
			u := numericTwin(src, v, fams)
			if v.Numerics() != u.Numerics() {
				t.Fatalf("twin of %+v left its projection: %+v", v, u)
			}
			var want *tensor.Tensor
			for _, variant := range []Variant{v, u} {
				for _, workers := range []int{1, 2} {
					SetWorkers(workers)
					y := exec(variant)
					if want == nil {
						want = y
					}
					sameBits(t, fmt.Sprintf("%s %+v workers=%d vs %+v", label, variant, workers, v), y, want)
				}
			}
		}
	}
	for _, cs := range convShapes {
		p := tensor.ConvParams{OutC: cs.outC, Kernel: cs.kernel, Stride: cs.stride, Pad: cs.pad, Groups: cs.groups}
		x := randTensor("en-x/"+cs.name, cs.n, cs.c, cs.h, cs.w)
		w := randTensor("en-w/"+cs.name, cs.outC, cs.c/cs.groups, cs.kernel, cs.kernel)
		b := randTensor("en-b/"+cs.name, 1, cs.outC, 1, 1)
		oh := tensor.ConvOutDim(cs.h, cs.kernel, cs.stride, cs.pad)
		ow := tensor.ConvOutDim(cs.w, cs.kernel, cs.stride, cs.pad)
		twinsAgree("conv "+cs.name, []Family{FamHMMAConv, FamWinograd, FamCUDAConv, FamDepthwise}, func(v Variant) *tensor.Tensor {
			y := tensor.New(cs.n, cs.outC, oh, ow)
			if err := ExecConvInto(v, x, w, b, p, y); err != nil {
				t.Fatal(err)
			}
			return y
		})
	}
	for _, fs := range []struct{ n, c, h, w, out int }{{1, 32, 2, 2, 10}, {2, 128, 1, 1, 33}, {1, 7, 3, 3, 5}} {
		name := fmt.Sprintf("fc %dx%d", fs.c*fs.h*fs.w, fs.out)
		x := randTensor("en-fx/"+name, fs.n, fs.c, fs.h, fs.w)
		w := randTensor("en-fw/"+name, 1, fs.out*fs.c*fs.h*fs.w, 1, 1)
		b := randTensor("en-fb/"+name, 1, fs.out, 1, 1)
		twinsAgree(name, []Family{FamGEMM, FamHMMAConv, FamCUDAConv}, func(v Variant) *tensor.Tensor {
			y := tensor.New(fs.n, fs.out, 1, 1)
			if err := ExecFCInto(v, x, w, b, fs.out, y); err != nil {
				t.Fatal(err)
			}
			return y
		})
	}
}

// TestEveryNumericsFieldReachesABit: the projection holds nothing idle.
// A 64-long reduction of ones against crafted weights — as an FC and as
// the 1×1 convolution that is the same GEMM — where each single-field
// change moves a rounding point or the epilogue across a value FP16
// cannot hold (2049: eleven significand bits stop at 2048).
func TestEveryNumericsFieldReachesABit(t *testing.T) {
	weights := func(at map[int]float32) *tensor.Tensor {
		w := tensor.New(1, 64, 1, 1)
		for i, v := range at {
			w.Data[i] = v
		}
		return w
	}
	half := Variant{Family: FamGEMM, TileM: 64, TileN: 64, Precision: tensor.FP16}
	with := func(v Variant, edit func(*Variant)) Variant {
		edit(&v)
		return v
	}
	cases := []struct {
		field string
		w     *tensor.Tensor
		a, b  Variant
	}{
		// One tile sums to 2050, exactly; two tiles round 2049 down to 2048
		// and then cannot see the 1.
		{"TileK", weights(map[int]float32{0: 2049, 32: 1}),
			with(half, func(v *Variant) { v.TileK = 64 }), with(half, func(v *Variant) { v.TileK = 32 })},
		// FP32 keeps 2049.
		{"Half", weights(map[int]float32{0: 2049}),
			with(half, func(v *Variant) { v.TileK = 64 }), with(half, func(v *Variant) { v.TileK, v.Precision = 64, tensor.FP32 })},
		// Partials 2048, 0, 1, 1: in sequence each 1 is lost to 2048; split,
		// the second half sums to 2 first and 2050 is representable.
		{"SplitK", weights(map[int]float32{0: 2048, 32: 1, 48: 1}),
			with(half, func(v *Variant) { v.TileK, v.SplitK = 16, 1 }), with(half, func(v *Variant) { v.TileK, v.SplitK = 16, 2 })},
		{"FusedAct", weights(map[int]float32{0: -3}),
			with(half, func(v *Variant) { v.TileK = 64 }), with(half, func(v *Variant) { v.TileK, v.FusedAct = 64, true })},
	}
	x := tensor.New(1, 64, 1, 1)
	for i := range x.Data {
		x.Data[i] = 1
	}
	pointwise := tensor.ConvParams{OutC: 1, Kernel: 1, Stride: 1, Groups: 1}
	for _, c := range cases {
		na, nb := c.a.Numerics(), c.b.Numerics()
		differing := 0
		for _, d := range []bool{na.TileK != nb.TileK, na.SplitK != nb.SplitK, na.Half != nb.Half, na.FusedAct != nb.FusedAct} {
			if d {
				differing++
			}
		}
		if differing != 1 {
			t.Fatalf("%s: case changes %d Numerics fields, want exactly 1 (%+v vs %+v)", c.field, differing, na, nb)
		}
		fa, fb := mustExecFC(t, c.a, x, c.w, nil, 1), mustExecFC(t, c.b, x, c.w, nil, 1)
		if math.Float32bits(fa.Data[0]) == math.Float32bits(fb.Data[0]) {
			t.Errorf("%s: fc output %v under both %+v and %+v", c.field, fa.Data[0], na, nb)
		}
		ca, cb := mustExecConv(t, c.a, x, c.w, nil, pointwise), mustExecConv(t, c.b, x, c.w, nil, pointwise)
		if math.Float32bits(ca.Data[0]) == math.Float32bits(cb.Data[0]) {
			t.Errorf("%s: conv output %v under both %+v and %+v", c.field, ca.Data[0], na, nb)
		}
	}
}
