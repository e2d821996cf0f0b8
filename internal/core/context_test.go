package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// Ownership and lifetime of execution contexts: what a call returns is
// the caller's alone, what it was given is never written, and contexts
// are neither shared between calls in flight nor hoarded.

func TestOutputsAndInputsAreTheCallers(t *testing.T) {
	for _, disable := range [][]string{nil, {PassDeadLayerRemoval}} {
		cfg := nxCfg(1)
		cfg.DisablePasses = disable
		e, err := Build(oddNet(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		xs := batchInputs(t, "ownership-x", 3)
		snap := make([][]float32, len(xs))
		for i, x := range xs {
			snap[i] = append([]float32(nil), x.Data...)
		}
		want, err := e.InferBatchCtx(nil, xs, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantBits := make([][]uint64, len(want))
		for i := range want {
			for _, o := range want[i] {
				wantBits[i] = append(wantBits[i], digest(o))
			}
		}
		// Scribble over everything the call returned, under a corrupting
		// injector too; the next call must neither see it nor return a
		// tensor it returned before.
		seen := map[*tensor.Tensor]bool{}
		for round := 0; round < 4; round++ {
			var fi FaultInjector
			if round%2 == 1 {
				fi = newRecorder(fmt.Sprintf("ownership/%d", round))
			}
			got, err := e.InferBatchCtx(nil, xs, fi, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			idle := e.plan.checkout(len(e.plan.free))
			for c := idle; c != nil; c = c.next {
				for li, a := range c.acts {
					if a != nil {
						t.Fatalf("round %d: idle context still references layer %d's activation", round, li)
					}
				}
			}
			owned := func(o *tensor.Tensor) bool {
				for c := idle; c != nil; c = c.next {
					if c.owns(o) {
						return true
					}
				}
				return false
			}
			for i := range got {
				for oi, o := range got[i] {
					if owned(o) || seen[o] {
						t.Fatalf("round %d: image %d output %d was handed out before or lives in a context", round, i, oi)
					}
					seen[o] = true
					if fi == nil && digest(o) != wantBits[i][oi] {
						t.Fatalf("round %d: image %d output %d changed after the caller scribbled on an earlier answer", round, i, oi)
					}
					if o != xs[i] { // flat_in copies the input; nothing returns it
						o.Fill(float32(math.NaN()))
					}
				}
			}
			e.plan.checkin(idle)
			for i, x := range xs {
				for j, v := range x.Data {
					if math.Float32bits(v) != math.Float32bits(snap[i][j]) {
						t.Fatalf("round %d: the caller's input %d was written at %d", round, i, j)
					}
				}
			}
		}
	}
}

// The detector is fully convolutional: a scene of another size runs
// through the contexts sized for the declared one, growing them in place,
// and going back to the declared size still answers bit for bit.
func TestContextsFollowInputShape(t *testing.T) {
	g, err := models.BuildDetectorProxy("detector", 24)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][4]int{{1, 3, 24, 24}, {2, 3, 40, 32}, {1, 3, 24, 24}, {1, 3, 8, 8}} {
		x := tensor.New(shape[0], shape[1], shape[2], shape[3])
		for i := range x.Data {
			x.Data[i] = float32(i%17) / 17
		}
		xs := []*tensor.Tensor{x, x}
		got, gotErr := e.InferBatchCtx(nil, xs, nil, nil, 0)
		want, wantErr := refInfer(e, xs, nil, nil, 0, -1, nil)
		sameRun(t, fmt.Sprint(shape), got, want, gotErr, wantErr, nil, nil)
		if gotErr != nil {
			t.Fatalf("%v: %v", shape, gotErr)
		}
	}
}

// One engine, eight goroutines, 200 calls each with mixed batch sizes
// (run under -race in CI): contexts are never shared between calls in
// flight, and the engine never keeps more than ctxCap of them.
func TestConcurrentContextsStayPrivateAndBounded(t *testing.T) {
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	s := g.InputShape
	xs := make([]*tensor.Tensor, 12)
	want := make([]uint64, len(xs))
	for i := range xs {
		xs[i] = tensor.New(s[0], s[1], s[2], s[3])
		for j := range xs[i].Data {
			xs[i].Data[j] = float32((i*31+j)%97) / 97
		}
		out, err := e.Infer(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = digest(out[0])
	}
	calls := 200
	if testing.Short() {
		calls = 40
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < calls; it++ {
				lo := (gi + it) % len(xs)
				n := []int{1, 2, 5, 9}[(gi+it)%4] // 9 > ctxCap
				batch := make([]*tensor.Tensor, n)
				for k := range batch {
					batch[k] = xs[(lo+k)%len(xs)]
				}
				outs, err := e.InferBatchCtx(nil, batch, nil, nil, 0)
				if err != nil {
					errc <- err
					return
				}
				for k := range outs {
					if digest(outs[k][0]) != want[(lo+k)%len(xs)] {
						errc <- fmt.Errorf("goroutine %d call %d image %d differs from its serial answer", gi, it, k)
						return
					}
				}
				if idle := len(e.plan.free); idle > ctxCap {
					errc <- fmt.Errorf("%d idle contexts, cap %d", idle, ctxCap)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if idle := len(e.plan.free); idle < 1 || idle > ctxCap {
		t.Errorf("%d idle contexts after the storm, want 1..%d", idle, ctxCap)
	}
}
