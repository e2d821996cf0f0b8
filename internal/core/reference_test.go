package core

import (
	"fmt"
	"math/rand"
	"testing"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// benchCorpus rebuilds the serving benchmark's inputs: the benign images
// netserve resolves {"input":N} to, then the raw-body corpus — class
// templates under the benchmark's own observation noise (σ 3.8, from its
// fixed math/rand seed).
func benchCorpus() []*tensor.Tensor {
	var xs []*tensor.Tensor
	for _, s := range dataset.Benign(dataset.DefaultBenign(1)) {
		xs = append(xs, s.Image)
	}
	tpl := dataset.Templates("imagenet-proxy", dataset.NumClasses)
	rng := rand.New(rand.NewSource(0x5eedc0de))
	for i := 0; i < 128; i++ {
		img := tpl[i%len(tpl)].Clone()
		for k := range img.Data {
			img.Data[k] += float32(3.8 * rng.NormFloat64())
		}
		xs = append(xs, img)
	}
	return xs
}

// TestReferenceMatchesExecute holds the reference schedule to
// graph.Execute bit for bit: every classifier proxy over the benchmark
// corpus, one image at a time through recycled contexts, then the test
// networks' dead branch, dropout aliases and flatten views in a batch
// wider than the context cache.
func TestReferenceMatchesExecute(t *testing.T) {
	corpus, step := benchCorpus(), 1
	if testing.Short() || raceEnabled {
		step = 9
	}
	for _, name := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
		g, err := models.BuildProxy(name, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := Reference(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(corpus); i += step {
			want, err := g.Execute(corpus[i])
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Infer(corpus[i])
			if err != nil {
				t.Fatalf("%s image %d: %v", name, i, err)
			}
			sameBitsBatch(t, fmt.Sprintf("%s image %d", name, i), got, want)
		}
	}
	for _, g := range []*graph.Graph{tinyNet(t), oddNet(t)} {
		r, err := Reference(g)
		if err != nil {
			t.Fatal(err)
		}
		xs := batchInputs(t, "reference-x/"+g.Name, ctxCap+1)
		got, err := r.InferBatchCtx(nil, xs, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want, err := g.Execute(x)
			if err != nil {
				t.Fatal(err)
			}
			sameBitsBatch(t, fmt.Sprintf("%s image %d", g.Name, i), got[i], want)
		}
	}
}

// TestReferenceErrorParity wrecks a graph the ways a broken one can be —
// a missing weight, conv parameters or a weight length the operator
// rejects, a short batch-norm parameter, an input of another shape, no
// Finalize — and holds the reference to graph.Execute: an error wherever
// it errs, and never a panic.
func TestReferenceErrorParity(t *testing.T) {
	layerOf := func(g *graph.Graph, op graph.OpType) *graph.Layer {
		for _, l := range g.Layers {
			if l.Op == op {
				return l
			}
		}
		t.Fatalf("no %s layer", op)
		return nil
	}
	conv := func(g *graph.Graph) *graph.Layer { return layerOf(g, graph.OpConv) }
	cases := []struct {
		name  string
		x     *tensor.Tensor // nil: the declared input shape
		wreck func(g *graph.Graph) *graph.Graph
	}{
		{"conv-no-weights", nil, func(g *graph.Graph) *graph.Graph { delete(conv(g).Weights, "w"); return g }},
		{"fc-no-weights", nil, func(g *graph.Graph) *graph.Graph { delete(layerOf(g, graph.OpFC).Weights, "w"); return g }},
		{"conv-zero-stride", nil, func(g *graph.Graph) *graph.Graph { conv(g).Conv.Stride = 0; return g }},
		{"conv-negative-pad", nil, func(g *graph.Graph) *graph.Graph { conv(g).Conv.Pad = -1; return g }},
		{"conv-weight-length", nil, func(g *graph.Graph) *graph.Graph {
			l := conv(g)
			l.Weights["w"] = tensor.NewVec(l.Weights["w"].Len() - 1)
			return g
		}},
		{"batchnorm-short-gamma", nil, func(g *graph.Graph) *graph.Graph {
			layerOf(g, graph.OpBatchNorm).Weights["gamma"] = tensor.NewVec(1)
			return g
		}},
		{"input-of-another-shape", tensor.New(1, 4, 9, 8), nil},
		{"input-batch-of-two", tensor.New(2, 4, 8, 8), nil},
		{"not-finalized", nil, func(g *graph.Graph) *graph.Graph { return graph.New(g.Name, g.InputShape) }},
	}
	for _, tc := range cases {
		g := tinyNet(t)
		if tc.wreck != nil {
			g = tc.wreck(g)
		}
		x := tc.x
		if x == nil {
			x = batchInputs(t, "reference-hostile-x", 1)[0]
		}
		wantErr := noPanic(t, tc.name+": graph.Execute", func() error {
			_, err := g.Execute(x)
			return err
		})
		gotErr := noPanic(t, tc.name+": reference", func() error {
			r, err := Reference(g)
			if err == nil {
				_, err = r.Infer(x)
			}
			return err
		})
		if wantErr == nil {
			t.Fatalf("%s: graph.Execute accepted the wrecked graph", tc.name)
		}
		if gotErr == nil {
			t.Fatalf("%s: the reference answered where graph.Execute errs (%v)", tc.name, wantErr)
		}
	}
}

// noPanic runs f, failing the test if it panics.
func noPanic(t *testing.T, label string, f func() error) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", label, r)
		}
	}()
	return f()
}
