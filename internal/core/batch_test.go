package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

func batchInputs(t *testing.T, key string, n int) []*tensor.Tensor {
	t.Helper()
	src := fixrand.NewKeyed(key)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.New(1, 4, 8, 8)
		for j := range x.Data {
			x.Data[j] = float32(src.NormFloat64())
		}
		xs[i] = x
	}
	return xs
}

func sameBitsBatch(t *testing.T, label string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for oi := range want {
		if len(got[oi].Data) != len(want[oi].Data) {
			t.Fatalf("%s: output %d has %d elems, want %d", label, oi, len(got[oi].Data), len(want[oi].Data))
		}
		for j := range want[oi].Data {
			if math.Float32bits(got[oi].Data[j]) != math.Float32bits(want[oi].Data[j]) {
				t.Fatalf("%s: output %d diverges at %d: %v vs %v",
					label, oi, j, got[oi].Data[j], want[oi].Data[j])
			}
		}
	}
}

func TestInferBatchMatchesInfer(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "infer-batch-x", 5)
	batch, err := e.InferBatchCtx(nil, xs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(xs) {
		t.Fatalf("batch returned %d results for %d inputs", len(batch), len(xs))
	}
	for i, x := range xs {
		want, err := e.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		sameBitsBatch(t, fmt.Sprintf("image %d", i), batch[i], want)
	}
}

func TestInferBatchValidation(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := e.InferBatchCtx(nil, nil, nil, nil, 0)
	if err != nil || outs != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", outs, err)
	}
	if _, err := e.Infer(nil); err == nil || !strings.Contains(err.Error(), "input 0 is nil") {
		t.Fatalf("nil single image: got %v", err)
	}
	xs := batchInputs(t, "batch-validate", 1)
	if _, err := e.InferBatchCtx(nil, []*tensor.Tensor{xs[0], nil}, nil, nil, 0); err == nil || !strings.Contains(err.Error(), "input 1 is nil") {
		t.Fatalf("nil input: got %v", err)
	}
	timed, err := Build(models.MustBuild("resnet18"), nxCfg(1)) // no weights materialized
	if err != nil {
		t.Fatal(err)
	}
	if timed.Numeric {
		t.Fatal("full-scale graph should build timing-only")
	}
	if _, err := timed.InferBatchCtx(nil, xs, nil, nil, 0); err == nil || !strings.Contains(err.Error(), "timing-only") {
		t.Fatalf("timing-only engine: got %v", err)
	}
}

// countingFaults records injector consultations without injecting faults,
// except for an optional layer whose launch fails.
type countingFaults struct {
	failLayer string
	launches  map[string]int
	weights   map[string]int
	acts      map[string]int
}

func newCountingFaults() *countingFaults {
	return &countingFaults{
		launches: map[string]int{},
		weights:  map[string]int{},
		acts:     map[string]int{},
	}
}

func (f *countingFaults) MemcpyH2D(bytes int64) (int, error) { return 0, nil }

func (f *countingFaults) Launch(index int, symbol string) LaunchFault {
	f.launches[symbol]++
	return LaunchFault{Fail: symbol == f.failLayer}
}

func (f *countingFaults) CorruptWeights(layer, key string, w *tensor.Tensor) *tensor.Tensor {
	f.weights[layer]++
	return w
}

func (f *countingFaults) CorruptActivation(layer string, y *tensor.Tensor) {
	f.acts[layer]++
}

func TestInferBatchFaultyDrawsOncePerLayer(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "batch-faulty", 4)
	fi := newCountingFaults()
	if _, err := e.InferBatchCtx(nil, xs, fi, nil, 0); err != nil {
		t.Fatal(err)
	}
	for _, l := range e.Graph.Layers {
		want := 1
		if l.Op == graph.OpInput {
			want = 0
		}
		if got := fi.launches[l.Name]; got != want {
			t.Errorf("layer %s drew %d launch verdicts, want %d (one per batched launch)", l.Name, got, want)
		}
		if l.Op == graph.OpConv || l.Op == graph.OpFC {
			if got := fi.weights[l.Name]; got != 1 {
				t.Errorf("layer %s drew %d weight corruptions, want 1", l.Name, got)
			}
		}
		// Activation corruption stays per image: each image's activation
		// is a distinct tensor.
		if l.Op != graph.OpInput {
			if got := fi.acts[l.Name]; got != len(xs) {
				t.Errorf("layer %s drew %d activation corruptions, want %d (one per image)", l.Name, got, len(xs))
			}
		}
	}

	fail := newCountingFaults()
	fail.failLayer = e.Graph.Layers[len(e.Graph.Layers)-1].Name
	if _, err := e.InferBatchCtx(nil, xs, fail, nil, 0); !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("failed launch: got %v, want ErrLaunchFailed", err)
	}
}

func TestInferOutputsSurviveArenaRecycling(t *testing.T) {
	// Graph outputs are kept out of the arena: a later inference must not
	// recycle (and overwrite) buffers the caller still holds.
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "arena-keep", 4)
	first, err := e.Infer(xs[0])
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]float32(nil), first[0].Data...)
	for _, x := range xs[1:] {
		if _, err := e.Infer(x); err != nil {
			t.Fatal(err)
		}
		if _, err := e.InferBatchCtx(nil, xs, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	for j := range snap {
		if math.Float32bits(first[0].Data[j]) != math.Float32bits(snap[j]) {
			t.Fatalf("held output mutated at %d: %v vs %v", j, first[0].Data[j], snap[j])
		}
	}
}

func TestConcurrentInferSharedEngine(t *testing.T) {
	// One engine, many goroutines: the arena must never hand the same
	// buffer to two in-flight inferences, so every result stays
	// bit-identical to its serial reference.
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "concurrent-infer", 8)
	refs := make([][]*tensor.Tensor, len(xs))
	for i, x := range xs {
		r, err := e.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	var wg sync.WaitGroup
	errc := make(chan error, len(xs)*6)
	for gi := range xs {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				var got []*tensor.Tensor
				var err error
				if it%2 == 0 {
					got, err = e.Infer(xs[gi])
				} else {
					var outs [][]*tensor.Tensor
					outs, err = e.InferBatchCtx(nil, xs[gi:gi+1], nil, nil, 0)
					if err == nil {
						got = outs[0]
					}
				}
				if err != nil {
					errc <- err
					return
				}
				for oi := range refs[gi] {
					for j := range refs[gi][oi].Data {
						if math.Float32bits(got[oi].Data[j]) != math.Float32bits(refs[gi][oi].Data[j]) {
							errc <- fmt.Errorf("goroutine %d iter %d: output %d diverges at %d", gi, it, oi, j)
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
