package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/tensor"
)

// The frozen engine kernels: execConv as it was frozen — chunk's (batch,
// output row) loop around row, with the implicit-GEMM patch path
// (gather, reducePatch) it then had, dotTile, reduceEdge and store
// inlined — and fcExec.chunk, run serially and allocating as they
// please. A rewrite of the kernels may change which element is computed
// when, never the sequence of float32 operations and rounding points an
// element receives, so these bodies stay as they are and
// TestKernelsMatchFrozenLoops holds ExecConvInto and ExecFCInto to them.

func frozenRound(nu Numerics, v float32) float32 {
	if nu.Half {
		return tensor.RoundFP16(v)
	}
	return v
}

func frozenCombine(nu Numerics, partials []float32) float32 {
	if len(partials) == 0 {
		return 0
	}
	if nu.SplitK && len(partials) > 1 {
		mid := len(partials) / 2
		var lo, hi float32
		for _, p := range partials[:mid] {
			lo = frozenRound(nu, lo+p)
		}
		for _, p := range partials[mid:] {
			hi = frozenRound(nu, hi+p)
		}
		return frozenRound(nu, lo+hi)
	}
	var acc float32
	for _, p := range partials {
		acc = frozenRound(nu, acc+p)
	}
	return acc
}

func frozenTapRange(at, k, n int) (lo, hi int) {
	lo, hi = max(-at, 0), min(k, n-at)
	return lo, max(hi, lo)
}

func frozenExecConv(v Variant, x, w, b *tensor.Tensor, p tensor.ConvParams) *tensor.Tensor {
	nu := v.Numerics()
	groups := p.Groups
	if groups <= 0 {
		groups = 1
	}
	icg, ocg := x.C/groups, p.OutC/groups
	k, stride, pad := p.Kernel, p.Stride, p.Pad
	kk := k * k
	tileC := nu.TileK / kk
	if tileC < 1 {
		tileC = 1
	}
	oh := tensor.ConvOutDim(x.H, k, stride, pad)
	ow := tensor.ConvOutDim(x.W, k, stride, pad)
	y := tensor.New(x.N, p.OutC, oh, ow)
	store := func(n, oc, i, j int, val float32) {
		var bias float32
		if b != nil {
			bias = b.Data[oc]
		}
		val = frozenRound(nu, val+bias)
		if nu.FusedAct && val < 0 {
			val = 0
		}
		y.Data[((n*p.OutC+oc)*oh+i)*ow+j] = val
	}
	for r := 0; r < x.N*oh; r++ {
		n, i := r/oh, r%oh
		ih0 := i*stride - pad
		khLo, khHi := frozenTapRange(ih0, k, x.H)
		for j := 0; j < ow; j++ {
			iw0 := j*stride - pad
			kwLo, kwHi := frozenTapRange(iw0, k, x.W)
			if khLo == khHi || kwLo == kwHi {
				for oc := 0; oc < p.OutC; oc++ {
					store(n, oc, i, j, 0)
				}
				continue
			}
			interior := khLo == 0 && khHi == k && kwLo == 0 && kwHi == k
			for g := 0; g < groups; g++ {
				oc0 := g * ocg
				if interior && ocg > 1 {
					var patch []float32
					for cc := 0; cc < icg; cc++ {
						off := ((n*x.C+g*icg+cc)*x.H+ih0)*x.W + iw0
						for kh := 0; kh < k; kh++ {
							patch = append(patch, x.Data[off:off+k]...)
							off += x.W
						}
					}
					for oc := oc0; oc < oc0+ocg; oc++ {
						wrow := w.Data[oc*icg*kk : (oc+1)*icg*kk]
						var partials []float32
						for c0 := 0; c0 < icg; c0 += tileC {
							c1 := min(c0+tileC, icg)
							var acc float32
							ws := wrow[c0*kk : c1*kk]
							for t, xv := range patch[c0*kk : c1*kk] {
								acc += ws[t] * xv
							}
							partials = append(partials, frozenRound(nu, acc))
						}
						store(n, oc, i, j, frozenCombine(nu, partials))
					}
					continue
				}
				for oc := oc0; oc < oc0+ocg; oc++ {
					var partials []float32
					for c0 := 0; c0 < icg; c0 += tileC {
						c1 := min(c0+tileC, icg)
						var acc float32
						for cc := c0; cc < c1; cc++ {
							ic := g*icg + cc
							wbase := (oc*icg + cc) * kk
							for kh := khLo; kh < khHi; kh++ {
								xoff := ((n*x.C+ic)*x.H+ih0+kh)*x.W + iw0
								woff := wbase + kh*k
								wrow := w.Data[woff+kwLo : woff+kwHi]
								for t, xv := range x.Data[xoff+kwLo : xoff+kwHi] {
									acc += wrow[t] * xv
								}
							}
						}
						partials = append(partials, frozenRound(nu, acc))
					}
					store(n, oc, i, j, frozenCombine(nu, partials))
				}
			}
		}
	}
	return y
}

func frozenExecFC(v Variant, x, w, b *tensor.Tensor, out int) *tensor.Tensor {
	nu := v.Numerics()
	in := x.C * x.H * x.W
	tile := nu.TileK
	if tile < 1 {
		tile = in
	}
	y := tensor.New(x.N, out, 1, 1)
	for u := 0; u < x.N*out; u++ {
		n, o := u/out, u%out
		xrow := x.Data[n*in : (n+1)*in]
		wrow := w.Data[o*in : (o+1)*in]
		var partials []float32
		for k0 := 0; k0 < in; k0 += tile {
			k1 := min(k0+tile, in)
			var acc float32
			ws := wrow[k0:k1]
			for t, xv := range xrow[k0:k1] {
				acc += ws[t] * xv
			}
			partials = append(partials, frozenRound(nu, acc))
		}
		val := frozenCombine(nu, partials)
		if b != nil {
			val = frozenRound(nu, val+b.Data[o])
		}
		if nu.FusedAct && val < 0 {
			val = 0
		}
		y.Data[n*out+o] = val
	}
	return y
}

// quickRand drives testing/quick from a fixrand stream, so a sweep's
// cases are the same on every run instead of being time-seeded.
func quickRand(key string) *rand.Rand { return rand.New(fixSource{fixrand.NewKeyed(key)}) }

type fixSource struct{ *fixrand.Source }

func (s fixSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s fixSource) Seed(int64)   {}

// sweepCoverage counts the classes a sweep reached, so a generator change
// that stops producing one fails loudly instead of narrowing the sweep.
type sweepCoverage map[string]int

func (cv sweepCoverage) require(t *testing.T, classes ...string) {
	t.Helper()
	for _, c := range classes {
		if cv[c] == 0 {
			t.Errorf("sweep never produced a %s case (coverage %v)", c, map[string]int(cv))
		}
	}
}

// sweepValue draws an operand: about one in forty is NaN, +Inf, −Inf or
// −0 — the values faults writes into a corrupted weight, and the ones a
// shortcut that multiplies padding by zero (0·Inf = NaN) or seeds a sum
// with −0 gets wrong.
func sweepValue(src *fixrand.Source, cv sweepCoverage) float32 {
	if src.Intn(40) == 0 {
		cv["non-finite or -0 operand"]++
		return [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}[src.Intn(4)]
	}
	return float32(src.NormFloat64())
}

func sweepTensor(src *fixrand.Source, cv sweepCoverage, n, c, h, w int) *tensor.Tensor {
	t := tensor.New(n, c, h, w)
	for i := range t.Data {
		t.Data[i] = sweepValue(src, cv)
	}
	return t
}

// sweepVariant draws every Numerics field: TileK from the tuners' menus
// and both degenerate ends, split-K, FP16 rounding and fused ReLU.
func sweepVariant(src *fixrand.Source) Variant {
	v := Variant{
		Family: FamCUDAConv, TileM: 64, TileN: 64,
		TileK:     []int{0, 1, 4, 9, 16, 18, 27, 32, 64, 1 << 20}[src.Intn(10)],
		SplitK:    1 + src.Intn(2),
		Precision: tensor.FP32,
		FusedAct:  src.Intn(2) == 0,
	}
	if src.Intn(2) == 0 {
		v.Precision = tensor.FP16
	}
	return v
}

// sweepConv draws a convolution: dense (up to 8 input channels, so a 3×3
// at TileK 9 spans eight tiles), grouped, depthwise ×1/×2 or 1×1; k 1–5,
// stride 1–3, pad 0..k+1, input 1–12 on a side, batch 1–3.
func sweepConv(src *fixrand.Source, cv sweepCoverage) (x, w, b *tensor.Tensor, p tensor.ConvParams) {
	for {
		groups, icg, ocg := 1, 1+src.Intn(8), 1+src.Intn(4)
		k := 1 + src.Intn(5)
		switch src.Intn(4) {
		case 1:
			groups, icg = 2+src.Intn(2), 1+src.Intn(3)
		case 2: // depthwise, channel multiplier 1 or 2
			groups, icg, ocg = 2+src.Intn(5), 1, 1+src.Intn(2)
		case 3:
			k = 1
		}
		p = tensor.ConvParams{OutC: groups * ocg, Kernel: k, Stride: 1 + src.Intn(3), Pad: src.Intn(k + 2), Groups: groups}
		n, h, wd := 1+src.Intn(3), 1+src.Intn(12), 1+src.Intn(12)
		oh, ow := tensor.ConvOutDim(h, k, p.Stride, p.Pad), tensor.ConvOutDim(wd, k, p.Stride, p.Pad)
		if oh <= 0 || ow <= 0 {
			continue
		}
		x = sweepTensor(src, cv, n, groups*icg, h, wd)
		w = sweepTensor(src, cv, p.OutC, icg, k, k)
		if src.Intn(4) > 0 {
			b = sweepTensor(src, cv, 1, p.OutC, 1, 1)
		}
		for class, ok := range map[string]bool{
			"depthwise": groups > 1 && icg == 1, "grouped": groups > 1 && icg > 1, "1x1": k == 1,
			"strided": p.Stride > 1, "pad=k": p.Pad == k, "pad=k+1": p.Pad == k+1,
			"ow<k": ow < k, "N>1": n > 1,
			"split across workers": (n*oh+grainFor(ow*p.OutC*icg*k*k)-1)/grainFor(ow*p.OutC*icg*k*k) > 1,
		} {
			if ok {
				cv[class]++
			}
		}
		return x, w, b, p
	}
}

// staleOutput is an output buffer holding a finite stale value, so an
// element the kernel fails to write shows.
func staleOutput(n, c, h, w int) *tensor.Tensor {
	y := tensor.New(n, c, h, w)
	y.Fill(12345.5)
	return y
}

// firstDiff describes the first element of got whose bits are not
// want's, two NaNs matching (Go leaves the payload of an operation that
// meets two NaNs unspecified); "" means none.
func firstDiff(got, want *tensor.Tensor) string {
	if got.Shape() != want.Shape() {
		return fmt.Sprintf("shape %v, want %v", got.Shape(), want.Shape())
	}
	for i, wv := range want.Data {
		if gv := got.Data[i]; math.Float32bits(gv) != math.Float32bits(wv) && !(gv != gv && wv != wv) {
			return fmt.Sprintf("element %d is %v (%#08x), want %v (%#08x)", i, gv, math.Float32bits(gv), wv, math.Float32bits(wv))
		}
	}
	return ""
}

// TestKernelsMatchFrozenLoops is the gate for any rewrite of the engine
// kernels: ExecConvInto and ExecFCInto against the frozen loops over
// drawn Numerics × shape × batch × worker count, non-finite operands
// included, each case run into a stale buffer at one worker and at two
// to four. The last sweep pins what lets the reference row accumulator
// stand in for the single-tile conv: FP32 without fused ReLU in one
// reduction tile is tensor.Conv2D, bit for bit.
func TestKernelsMatchFrozenLoops(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	count := 1500
	if testing.Short() || raceEnabled {
		count = 200
	}
	sweep := func(t *testing.T, name string, check func(src *fixrand.Source, cv sweepCoverage) string) sweepCoverage {
		t.Helper()
		cv := sweepCoverage{}
		err := quick.Check(func(seed uint64) bool {
			if diff := check(fixrand.New(seed), cv); diff != "" {
				t.Logf("seed %d: %s", seed, diff)
				return false
			}
			return true
		}, &quick.Config{MaxCount: count, Rand: quickRand("kernels/frozen/" + name)})
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
	// onWorkers runs exec at one worker, then at two to four.
	onWorkers := func(src *fixrand.Source, exec func() string) string {
		for _, n := range []int{1, 2 + src.Intn(3)} {
			SetWorkers(n)
			if diff := exec(); diff != "" {
				return fmt.Sprintf("%d workers: %s", n, diff)
			}
		}
		return ""
	}

	t.Run("conv", func(t *testing.T) {
		cv := sweep(t, "conv", func(src *fixrand.Source, cv sweepCoverage) string {
			v := sweepVariant(src)
			x, w, b, p := sweepConv(src, cv)
			if nu := v.Numerics(); x.C/p.Groups > max(nu.TileK/(p.Kernel*p.Kernel), 1) {
				cv["multi-tile"]++
				if nu.SplitK {
					cv["split-K over tiles"]++
				}
			}
			want := frozenExecConv(v, x, w, b, p)
			return onWorkers(src, func() string {
				y := staleOutput(want.N, want.C, want.H, want.W)
				if err := ExecConvInto(v, x, w, b, p, y); err != nil {
					return err.Error()
				}
				if diff := firstDiff(y, want); diff != "" {
					return fmt.Sprintf("%+v, %+v on %v: %s", v.Numerics(), p, x.Shape(), diff)
				}
				return ""
			})
		})
		cv.require(t, "depthwise", "grouped", "1x1", "strided", "pad=k", "pad=k+1", "ow<k", "N>1",
			"split across workers", "multi-tile", "split-K over tiles", "non-finite or -0 operand")
	})

	t.Run("fc", func(t *testing.T) {
		cv := sweep(t, "fc", func(src *fixrand.Source, cv sweepCoverage) string {
			v := sweepVariant(src)
			n, c, h, wd, out := 1+src.Intn(3), 1+src.Intn(64), 1+src.Intn(4), 1+src.Intn(4), 1+src.Intn(12)
			in := c * h * wd
			x := sweepTensor(src, cv, n, c, h, wd)
			w := sweepTensor(src, cv, 1, out*in, 1, 1)
			var b *tensor.Tensor
			if src.Intn(4) > 0 {
				b = sweepTensor(src, cv, 1, out, 1, 1)
			}
			if nu := v.Numerics(); nu.TileK >= 1 && in > nu.TileK {
				cv["multi-tile"]++
				if nu.SplitK {
					cv["split-K over tiles"]++
				}
			}
			if n > 1 {
				cv["N>1"]++
			}
			if g := grainFor(in); (n*out+g-1)/g > 1 {
				cv["split across workers"]++
			}
			want := frozenExecFC(v, x, w, b, out)
			return onWorkers(src, func() string {
				y := staleOutput(n, out, 1, 1)
				if err := ExecFCInto(v, x, w, b, out, y); err != nil {
					return err.Error()
				}
				if diff := firstDiff(y, want); diff != "" {
					return fmt.Sprintf("%+v, fc %d→%d on %v: %s", v.Numerics(), in, out, x.Shape(), diff)
				}
				return ""
			})
		})
		cv.require(t, "multi-tile", "split-K over tiles", "N>1", "split across workers", "non-finite or -0 operand")
	})

	t.Run("single-tile FP32 conv is tensor.Conv2D", func(t *testing.T) {
		// Each element is +0, its in-bounds products in (c, kh, kw) order,
		// an exact roundTo and combine, then the bias: Conv2D's sequence.
		cv := sweep(t, "conv2d", func(src *fixrand.Source, cv sweepCoverage) string {
			v := Variant{Family: FamCUDAConv, TileK: 1 << 20, SplitK: 1 + src.Intn(2), Precision: tensor.FP32}
			x, w, b, p := sweepConv(src, cv)
			want := tensor.Conv2D(x, w, b, p)
			return onWorkers(src, func() string {
				got, err := ExecConv(v, x, w, b, p)
				if err != nil {
					return err.Error()
				}
				if diff := firstDiff(got, want); diff != "" {
					return fmt.Sprintf("%+v on %v: %s", p, x.Shape(), diff)
				}
				return ""
			})
		})
		cv.require(t, "depthwise", "grouped", "1x1", "pad=k+1", "N>1", "split across workers", "non-finite or -0 operand")
	})
}

// FuzzKernelsMatchFrozenLoops is TestKernelsMatchFrozenLoops under the
// fuzzer: seed feeds the sweep's own generators — a variant from
// sweepVariant, a conv from sweepConv, then an fc drawn from the same
// stream — and each case runs into a stale buffer on 1 + workers%4
// workers, against the frozen loops.
func FuzzKernelsMatchFrozenLoops(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	defer SetWorkers(SetWorkers(1))
	f.Fuzz(func(t *testing.T, seed uint64, workers uint8) {
		SetWorkers(1 + int(workers%4))
		src, cv := fixrand.New(seed), sweepCoverage{}
		v := sweepVariant(src)
		x, w, b, p := sweepConv(src, cv)
		want := frozenExecConv(v, x, w, b, p)
		y := staleOutput(want.N, want.C, want.H, want.W)
		if err := ExecConvInto(v, x, w, b, p, y); err != nil {
			t.Fatal(err)
		}
		if diff := firstDiff(y, want); diff != "" {
			t.Fatalf("%+v, %+v on %v: %s", v.Numerics(), p, x.Shape(), diff)
		}

		n, c, h, wd, out := 1+src.Intn(3), 1+src.Intn(64), 1+src.Intn(4), 1+src.Intn(4), 1+src.Intn(12)
		x = sweepTensor(src, cv, n, c, h, wd)
		w, b = sweepTensor(src, cv, 1, out*c*h*wd, 1, 1), nil
		if src.Intn(4) > 0 {
			b = sweepTensor(src, cv, 1, out, 1, 1)
		}
		want = frozenExecFC(v, x, w, b, out)
		y = staleOutput(n, out, 1, 1)
		if err := ExecFCInto(v, x, w, b, out, y); err != nil {
			t.Fatal(err)
		}
		if diff := firstDiff(y, want); diff != "" {
			t.Fatalf("%+v, fc %d→%d on %v: %s", v.Numerics(), c*h*wd, out, x.Shape(), diff)
		}
	})
}
