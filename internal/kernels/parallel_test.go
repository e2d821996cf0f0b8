package kernels

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"edgeinfer/internal/tensor"
)

// Bit-identity suite for the parallel executor. refExecConv/refExecFC
// below are verbatim re-derivations of the original serial per-element
// implementation (one partials slice per output element, taps skipped by
// bounds checks); the pool-based executor must reproduce their outputs
// bit for bit — same Float32bits — for every variant shape, precision,
// split-K setting and worker count, because the engine consistency
// tables (paper Tables V/VI) are golden-number artifacts of exactly this
// accumulation order.

// refExecConv is the retained serial conv reference.
func refExecConv(v Variant, x, w, b *tensor.Tensor, p tensor.ConvParams) *tensor.Tensor {
	groups := p.Groups
	if groups <= 0 {
		groups = 1
	}
	icg := x.C / groups
	ocg := p.OutC / groups
	oh := tensor.ConvOutDim(x.H, p.Kernel, p.Stride, p.Pad)
	ow := tensor.ConvOutDim(x.W, p.Kernel, p.Stride, p.Pad)
	y := tensor.New(x.N, p.OutC, oh, ow)
	nu := v.Numerics()
	tileC := nu.tileChannels(p.Kernel)
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < p.OutC; oc++ {
			g := oc / ocg
			var bias float32
			if b != nil {
				bias = b.Data[oc]
			}
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					val := refReduceConv(nu, x, w, n, oc, g, icg, i, j, p, tileC)
					val = nu.roundTo(val + bias)
					if v.FusedAct && val < 0 {
						val = 0
					}
					y.Set(n, oc, i, j, val)
				}
			}
		}
	}
	return y
}

func refReduceConv(v Numerics, x, w *tensor.Tensor, n, oc, g, icg, i, j int, p tensor.ConvParams, tileC int) float32 {
	var partials []float32
	for c0 := 0; c0 < icg; c0 += tileC {
		c1 := c0 + tileC
		if c1 > icg {
			c1 = icg
		}
		var acc float32
		for c := c0; c < c1; c++ {
			ic := g*icg + c
			for kh := 0; kh < p.Kernel; kh++ {
				ih := i*p.Stride + kh - p.Pad
				if ih < 0 || ih >= x.H {
					continue
				}
				for kw := 0; kw < p.Kernel; kw++ {
					iw := j*p.Stride + kw - p.Pad
					if iw < 0 || iw >= x.W {
						continue
					}
					wv := w.Data[((oc*icg+c)*p.Kernel+kh)*p.Kernel+kw]
					acc += wv * x.At(n, ic, ih, iw)
				}
			}
		}
		partials = append(partials, v.roundTo(acc))
	}
	return v.combine(partials)
}

// refExecFC is the retained serial FC reference.
func refExecFC(v Variant, x, w, b *tensor.Tensor, out int) *tensor.Tensor {
	in := x.C * x.H * x.W
	tile := v.TileK
	if tile < 1 {
		tile = in
	}
	y := tensor.New(x.N, out, 1, 1)
	nu := v.Numerics()
	for n := 0; n < x.N; n++ {
		xoff := n * in
		for o := 0; o < out; o++ {
			woff := o * in
			var partials []float32
			for k0 := 0; k0 < in; k0 += tile {
				k1 := k0 + tile
				if k1 > in {
					k1 = in
				}
				var acc float32
				for k := k0; k < k1; k++ {
					acc += w.Data[woff+k] * x.Data[xoff+k]
				}
				partials = append(partials, nu.roundTo(acc))
			}
			val := nu.combine(partials)
			if b != nil {
				val = nu.roundTo(val + b.Data[o])
			}
			if v.FusedAct && val < 0 {
				val = 0
			}
			y.Set(n, o, 0, 0, val)
		}
	}
	return y
}

// sameBits fails the test at the first element whose Float32bits differ
// (NaN-exact, signed-zero-exact comparison).
func sameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d vs %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: bit mismatch at %d: %v (%08x) vs %v (%08x)", label, i,
				got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// matrixVariants pairs families with precisions, reduction tiles and
// split-K factors so every Family and every rounding mode appears.
func matrixVariants(fams []Family) []Variant {
	precs := []tensor.Precision{tensor.FP32, tensor.FP16, tensor.INT8}
	tileKs := []int{9, 32, 64, 288}
	splitKs := []int{1, 2, 4}
	var out []Variant
	for ti, tk := range tileKs {
		for si, sk := range splitKs {
			for pi, prec := range precs {
				out = append(out, Variant{
					Family:    fams[(ti+si+pi)%len(fams)],
					TileM:     64,
					TileN:     64,
					TileK:     tk,
					Precision: prec,
					SplitK:    sk,
					FusedAct:  (ti+si+pi)%2 == 0,
				})
			}
		}
	}
	return out
}

type convShape struct {
	name                              string
	n, c, h, w                        int
	outC, kernel, stride, pad, groups int
}

var convShapes = []convShape{
	{"pad1-3x3", 1, 16, 12, 12, 8, 3, 1, 1, 1},
	{"nopad", 2, 8, 9, 9, 12, 3, 1, 0, 1},
	{"stride2", 1, 12, 15, 15, 10, 3, 2, 1, 1},
	{"pointwise", 1, 32, 7, 7, 16, 1, 1, 0, 1},
	{"k5-pad2", 1, 6, 11, 11, 6, 5, 1, 2, 1},
	{"grouped", 1, 16, 8, 8, 16, 3, 1, 1, 4},
	{"depthwise", 1, 24, 10, 10, 24, 3, 1, 1, 24},
	{"deep", 1, 64, 4, 4, 48, 3, 1, 1, 1},
	{"tall-window", 1, 4, 3, 9, 4, 3, 1, 1, 1},
}

// TestParallelConvBitIdentical is the conv half of the issue's
// bit-identity matrix: every family/precision/TileK/SplitK combination,
// on shapes covering padding edges, strides, groups, depthwise and
// windows larger than the input, across worker counts 1, 4 and 8.
func TestParallelConvBitIdentical(t *testing.T) {
	variants := matrixVariants([]Family{FamHMMAConv, FamWinograd, FamCUDAConv, FamDepthwise})
	defer SetWorkers(SetWorkers(1))
	for shapeIdx, cs := range convShapes {
		p := tensor.ConvParams{OutC: cs.outC, Kernel: cs.kernel, Stride: cs.stride, Pad: cs.pad, Groups: cs.groups}
		x := randTensor("pc-x/"+cs.name, cs.n, cs.c, cs.h, cs.w)
		icg := cs.c / cs.groups
		w := randTensor("pc-w/"+cs.name, cs.outC, icg, cs.kernel, cs.kernel)
		bias := randTensor("pc-b/"+cs.name, 1, cs.outC, 1, 1)
		for vi, v := range variants {
			b := bias
			if (shapeIdx+vi)%2 == 0 {
				b = nil
			}
			want := refExecConv(v, x, w, b, p)
			for _, workers := range []int{1, 4, 8} {
				SetWorkers(workers)
				got := mustExecConv(t, v, x, w, b, p)
				sameBits(t, fmt.Sprintf("%s %+v workers=%d", cs.name, v, workers), got, want)
			}
		}
	}
}

// TestParallelFCBitIdentical is the FC half of the matrix, including the
// TileK<1 whole-reduction fallback and multi-image batches.
func TestParallelFCBitIdentical(t *testing.T) {
	shapes := []struct {
		name       string
		n, c, h, w int
		out        int
	}{
		{"fc-small", 1, 32, 2, 2, 10},
		{"fc-flat", 2, 128, 1, 1, 33},
		{"fc-odd", 1, 7, 3, 3, 5},
	}
	variants := matrixVariants([]Family{FamGEMM})
	variants = append(variants,
		Variant{Family: FamGEMM, TileK: 0, Precision: tensor.FP16, SplitK: 2},
		Variant{Family: FamGEMM, TileK: 1 << 20, Precision: tensor.FP16})
	defer SetWorkers(SetWorkers(1))
	for shapeIdx, cs := range shapes {
		in := cs.c * cs.h * cs.w
		x := randTensor("pf-x/"+cs.name, cs.n, cs.c, cs.h, cs.w)
		w := randTensor("pf-w/"+cs.name, 1, cs.out*in, 1, 1)
		bias := randTensor("pf-b/"+cs.name, 1, cs.out, 1, 1)
		for vi, v := range variants {
			b := bias
			if (shapeIdx+vi)%2 == 0 {
				b = nil
			}
			want := refExecFC(v, x, w, b, cs.out)
			for _, workers := range []int{1, 4, 8} {
				SetWorkers(workers)
				got := mustExecFC(t, v, x, w, b, cs.out)
				sameBits(t, fmt.Sprintf("%s %+v workers=%d", cs.name, v, workers), got, want)
			}
		}
	}
}

// TestExecIntoValidatesBuffers covers the reuse-path buffer contracts.
func TestExecIntoValidatesBuffers(t *testing.T) {
	x := randTensor("ei-x", 1, 8, 10, 10)
	w := randTensor("ei-w", 8, 8, 3, 3)
	p := tensor.ConvParams{OutC: 8, Kernel: 3, Stride: 1, Pad: 1, Groups: 1}
	v := Variant{Family: FamCUDAConv, TileM: 128, TileN: 64, TileK: 32, Precision: tensor.FP32}
	if err := ExecConvInto(v, x, w, nil, p, tensor.New(1, 8, 9, 9)); err == nil {
		t.Fatal("ExecConvInto accepted a mis-shaped output buffer")
	}
	if err := ExecConvInto(v, x, w, nil, p, nil); err == nil {
		t.Fatal("ExecConvInto accepted a nil output buffer")
	}
	y := tensor.New(1, 8, 10, 10)
	for i := range y.Data {
		y.Data[i] = float32(math.NaN()) // stale contents must be fully overwritten
	}
	if err := ExecConvInto(v, x, w, nil, p, y); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "conv into", y, mustExecConv(t, v, x, w, nil, p))

	fx := randTensor("ei-fx", 2, 16, 2, 2)
	fw := randTensor("ei-fw", 1, 10*64, 1, 1)
	fv := Variant{Family: FamGEMM, TileM: 64, TileN: 64, TileK: 32, Precision: tensor.FP16}
	if err := ExecFCInto(fv, fx, fw, nil, 10, tensor.New(2, 9, 1, 1)); err == nil {
		t.Fatal("ExecFCInto accepted a mis-shaped output buffer")
	}
	fy := tensor.New(2, 10, 1, 1)
	if err := ExecFCInto(fv, fx, fw, nil, 10, fy); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "fc into", fy, mustExecFC(t, fv, fx, fw, nil, 10))
}

// TestConcurrentExecRace hammers the shared pool from many goroutines —
// mixed conv and FC calls plus worker-count churn — and checks every
// result stays bit-identical to the serial reference. Run under -race
// this is the issue's data-race gate for the executor.
func TestConcurrentExecRace(t *testing.T) {
	x := randTensor("race-x", 1, 32, 10, 10)
	w := randTensor("race-w", 16, 32, 3, 3)
	p := tensor.ConvParams{OutC: 16, Kernel: 3, Stride: 1, Pad: 1, Groups: 1}
	cv := Variant{Family: FamHMMAConv, TileM: 128, TileN: 64, TileK: 64, Precision: tensor.FP16, SplitK: 2}
	fx := randTensor("race-fx", 1, 64, 2, 2)
	fw := randTensor("race-fw", 1, 20*256, 1, 1)
	fv := Variant{Family: FamGEMM, TileM: 64, TileN: 64, TileK: 64, Precision: tensor.FP16}
	wantConv := refExecConv(cv, x, w, nil, p)
	wantFC := refExecFC(fv, fx, fw, nil, 20)

	defer SetWorkers(SetWorkers(4))
	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if gi == 0 && it%5 == 0 {
					SetWorkers(1 + (it/5)%8) // churn the width mid-flight
				}
				if (gi+it)%2 == 0 {
					got, err := ExecConv(cv, x, w, nil, p)
					if err != nil {
						errs <- err
						return
					}
					for i := range wantConv.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(wantConv.Data[i]) {
							errs <- fmt.Errorf("goroutine %d iter %d: conv bit mismatch at %d", gi, it, i)
							return
						}
					}
				} else {
					got, err := ExecFC(fv, fx, fw, nil, 20)
					if err != nil {
						errs <- err
						return
					}
					for i := range wantFC.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(wantFC.Data[i]) {
							errs <- fmt.Errorf("goroutine %d iter %d: fc bit mismatch at %d", gi, it, i)
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExecIntoSteadyStateZeroAllocs proves the issue's allocation fix:
// once warm, the reuse-path kernels perform no heap allocation at all —
// the per-output-element partials slice of the old implementation is
// gone. Measured serially; the parallel dispatcher adds only O(1) small
// allocations per kernel launch (the chunk descriptor), never per
// element.
func TestExecIntoSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact counts only hold without it")
	}
	defer SetWorkers(SetWorkers(1))
	x := randTensor("za-x", 1, 32, 12, 12)
	w := randTensor("za-w", 16, 32, 3, 3)
	p := tensor.ConvParams{OutC: 16, Kernel: 3, Stride: 1, Pad: 1, Groups: 1}
	v := Variant{Family: FamHMMAConv, TileM: 128, TileN: 64, TileK: 64, Precision: tensor.FP16, SplitK: 2}
	y := tensor.New(1, 16, 12, 12)
	fx := randTensor("za-fx", 1, 64, 2, 2)
	fw := randTensor("za-fw", 1, 20*256, 1, 1)
	fv := Variant{Family: FamGEMM, TileM: 64, TileN: 64, TileK: 64, Precision: tensor.FP16}
	fy := tensor.New(1, 20, 1, 1)
	for i := 0; i < 3; i++ { // warm the scratch pool
		if err := ExecConvInto(v, x, w, nil, p, y); err != nil {
			t.Fatal(err)
		}
		if err := ExecFCInto(fv, fx, fw, nil, 20, fy); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := ExecConvInto(v, x, w, nil, p, y); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ExecConvInto allocates %.1f objects per run in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := ExecFCInto(fv, fx, fw, nil, 20, fy); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ExecFCInto allocates %.1f objects per run in steady state, want 0", allocs)
	}
}

// TestWorkerPoolKnobs pins the SetWorkers contract: floor of 1, previous
// value returned, Workers reflecting the current width.
func TestWorkerPoolKnobs(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	if prev := SetWorkers(3); prev != orig {
		t.Fatalf("SetWorkers returned %d, want previous %d", prev, orig)
	}
	if Workers() != 3 {
		t.Fatalf("Workers() %d after SetWorkers(3)", Workers())
	}
	SetWorkers(-5)
	if Workers() != 1 {
		t.Fatalf("Workers() %d after SetWorkers(-5), want floor 1", Workers())
	}
}

// BenchmarkExecConvInto is the kernel-level -benchmem witness for the
// zero-allocation steady state (run serially so the dispatcher's O(1)
// launch bookkeeping does not show up as per-op noise).
func BenchmarkExecConvInto(b *testing.B) {
	defer SetWorkers(SetWorkers(1))
	x := randTensor("bench-x", 1, 64, 16, 16)
	w := randTensor("bench-w", 64, 64, 3, 3)
	p := tensor.ConvParams{OutC: 64, Kernel: 3, Stride: 1, Pad: 1, Groups: 1}
	v := Variant{Family: FamHMMAConv, TileM: 128, TileN: 64, TileK: 64, Precision: tensor.FP16}
	y := tensor.New(1, 64, 16, 16)
	if err := ExecConvInto(v, x, w, nil, p, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ExecConvInto(v, x, w, nil, p, y); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStopWorkersRetiresHelpers pins the worker-pool stop path the
// goleak analyzer demands: StopWorkers terminates every helper
// goroutine, kernel execution stays bit-identical afterwards via the
// serial fallback, and SetWorkers respawns a working fleet.
func TestStopWorkersRetiresHelpers(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)

	SetWorkers(4)
	x := randTensor("stop-x", 1, 8, 10, 10)
	w := randTensor("stop-w", 8, 8, 3, 3)
	p := tensor.ConvParams{OutC: 8, Kernel: 3, Stride: 1, Pad: 1, Groups: 1}
	v := Variant{Family: FamCUDAConv, TileM: 32, TileN: 32, TileK: 8, Precision: tensor.FP32}
	want := mustExecConv(t, v, x, w, nil, p)

	before := runtime.NumGoroutine()
	StopWorkers()
	StopWorkers() // idempotent: second call must not hang or panic
	// hwg.Wait returns once every helper has run its deferred Done; the
	// goroutines themselves unwind an instant later, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() >= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got >= before {
		t.Fatalf("goroutine count %d after StopWorkers, want below %d", got, before)
	}

	// With zero helpers the non-blocking enlist finds no takers and the
	// caller does all chunks itself — still bit-identical.
	sameBits(t, "serial fallback after StopWorkers", mustExecConv(t, v, x, w, nil, p), want)

	SetWorkers(4)
	sameBits(t, "respawned fleet", mustExecConv(t, v, x, w, nil, p), want)
}
