package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// The oracle for the compiled schedule. refInfer is the name-resolving
// interpreter this package executed before Build/Load compiled a flat
// schedule (inferBatchRange + convApply + fcApply + quantInput), frozen
// verbatim minus its arena: per-image activation maps keyed by layer
// name, Choices/Fusions/Int8Ranges looked up per call, graph.EvalLayer
// and the allocating kernels for every op. The differential below holds
// execute to it bit for bit — outputs, every intermediate activation the
// injector sees, the injector's call transcript and error text.

func refInfer(e *Engine, xs []*tensor.Tensor, fi FaultInjector, guard func(li int, name string) error, from, to int, outNames []string) ([][]*tensor.Tensor, error) {
	if !e.Numeric {
		return nil, fmt.Errorf("core: engine %s is timing-only (no weights materialized)", e.Key())
	}
	if len(xs) == 0 {
		return nil, nil
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("core: infer batch %s: input %d is nil", e.Key(), i)
		}
	}
	g := e.Graph
	if to < 0 {
		to = len(g.Layers)
	}
	if from < 0 || from > to || to > len(g.Layers) {
		return nil, fmt.Errorf("core: infer %s: bad layer range [%d,%d) of %d", e.Key(), from, to, len(g.Layers))
	}
	if outNames == nil {
		outNames = g.Outputs
	}
	acts := make([]map[string]*tensor.Tensor, len(xs))
	for i := range acts {
		acts[i] = map[string]*tensor.Tensor{}
	}
	if from > 0 {
		bname := g.Layers[from-1].Name
		for img, x := range xs {
			acts[img][bname] = x
		}
	}
	for li := from; li < to; li++ {
		l := g.Layers[li]
		if guard != nil && l.Op != graph.OpInput {
			if err := guard(li, l.Name); err != nil {
				return nil, fmt.Errorf("core: infer %s: %w", e.Key(), err)
			}
		}
		if fi != nil && l.Op != graph.OpInput {
			if lf := fi.Launch(li, l.Name); lf.Fail {
				return nil, fmt.Errorf("core: infer %s layer %s: %w", e.Key(), l.Name, ErrLaunchFailed)
			}
		}
		isConv := l.Op == graph.OpConv
		isFC := l.Op == graph.OpFC
		var w, b *tensor.Tensor
		if isConv || isFC {
			w, b = l.Weights["w"], l.Weights["b"]
			if w == nil {
				kind := "conv"
				if isFC {
					kind = "fc"
				}
				return nil, fmt.Errorf("core: infer %s layer %s: %s %s has no weights", e.Key(), l.Name, kind, l.Name)
			}
			if fi != nil {
				w = fi.CorruptWeights(l.Name, "w", w)
			}
		}
		for img, x := range xs {
			var y *tensor.Tensor
			var err error
			switch {
			case l.Op == graph.OpInput:
				y = x
			case isConv:
				y, err = refConv(e, l, acts[img], w, b)
			case isFC:
				y, err = refFC(e, l, acts[img], w, b)
			default:
				ins := make([]*tensor.Tensor, len(l.Inputs))
				for i, name := range l.Inputs {
					ins[i] = acts[img][name]
				}
				y, err = graph.EvalLayer(l, ins)
			}
			if err != nil {
				return nil, fmt.Errorf("core: infer %s layer %s: %w", e.Key(), l.Name, err)
			}
			if fi != nil && l.Op != graph.OpInput && y != x {
				fi.CorruptActivation(l.Name, y)
			}
			acts[img][l.Name] = y
		}
	}
	outs := make([][]*tensor.Tensor, len(xs))
	for img := range xs {
		outs[img] = make([]*tensor.Tensor, len(outNames))
		for i, name := range outNames {
			outs[img][i] = acts[img][name]
		}
	}
	return outs, nil
}

func refConv(e *Engine, l *graph.Layer, acts map[string]*tensor.Tensor, w, b *tensor.Tensor) (*tensor.Tensor, error) {
	in := refQuant(e, l.Inputs[0], acts)
	v, ok := e.Choices[l.Name]
	if !ok {
		v = kernels.UnoptimizedConv()
	}
	f := e.Fusions[l.Name]
	v.FusedAct = f.Act == ActReLU
	y, err := kernels.ExecConv(v, in, w, b, l.Conv)
	if err != nil {
		return nil, err
	}
	return refEpilogue(y, f), nil
}

func refFC(e *Engine, l *graph.Layer, acts map[string]*tensor.Tensor, w, b *tensor.Tensor) (*tensor.Tensor, error) {
	in := refQuant(e, l.Inputs[0], acts)
	v, ok := e.Choices[l.Name]
	if !ok {
		v = kernels.Variant{Family: kernels.FamGEMM, TileM: 128, TileN: 64, TileK: 32, Precision: tensor.FP32}
	}
	f := e.Fusions[l.Name]
	v.FusedAct = f.Act == ActReLU
	y, err := kernels.ExecFC(v, in, w, b, l.OutUnits)
	if err != nil {
		return nil, err
	}
	return refEpilogue(y, f), nil
}

func refQuant(e *Engine, producer string, acts map[string]*tensor.Tensor) *tensor.Tensor {
	in := acts[producer]
	if e.Precision != tensor.INT8 || e.Int8Ranges == nil || in == nil {
		return in
	}
	rangeMax := e.Int8Ranges[producer]
	if rangeMax <= 0 {
		return in
	}
	scale := rangeMax / 127
	out := tensor.New(in.N, in.C, in.H, in.W)
	for i, v := range in.Data {
		out.Data[i] = tensor.DequantizeINT8(tensor.QuantizeINT8(v, scale), scale)
	}
	return out
}

func refEpilogue(y *tensor.Tensor, f Fusion) *tensor.Tensor {
	switch f.Act {
	case ActLeaky:
		return tensor.LeakyReLU(y, f.LeakyAlpha)
	case ActSigmoid:
		return tensor.Sigmoid(y)
	default:
		return y
	}
}

// event is one injector consultation. Activations and weights carry a
// digest of what the interpreter handed over, so the transcript compares
// every intermediate tensor, not just the call order.
type event struct {
	method string
	li     int
	name   string
	img    int
	digest uint64
}

// recorder is a FaultInjector that logs every consultation and, when
// seeded, corrupts weights (by copy) and activations (in place) from its
// own stream — so a call made out of order changes every later draw.
type recorder struct {
	events []event
	rng    *fixrand.Source
	seen   map[string]int
}

func newRecorder(seed string) *recorder {
	r := &recorder{seen: map[string]int{}}
	if seed != "" {
		r.rng = fixrand.NewKeyed(seed)
	}
	return r
}

func digest(t *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(t.N))
	mix(uint64(t.C))
	mix(uint64(t.H))
	mix(uint64(t.W))
	for _, v := range t.Data {
		mix(uint64(math.Float32bits(v)))
	}
	return h
}

func (r *recorder) flip(t *tensor.Tensor) {
	i := r.rng.Intn(len(t.Data))
	t.Data[i] = math.Float32frombits(math.Float32bits(t.Data[i]) ^ 1<<uint(r.rng.Intn(32)))
}

func (r *recorder) MemcpyH2D(int64) (int, error) { return 0, nil }

func (r *recorder) Launch(index int, symbol string) LaunchFault {
	r.events = append(r.events, event{method: "launch", li: index, name: symbol})
	return LaunchFault{}
}

func (r *recorder) CorruptWeights(layer, key string, w *tensor.Tensor) *tensor.Tensor {
	r.events = append(r.events, event{method: "weights", name: layer + "/" + key, digest: digest(w)})
	if r.rng != nil && r.rng.Float64() < 0.3 {
		w = w.Clone()
		r.flip(w)
	}
	return w
}

func (r *recorder) CorruptActivation(layer string, y *tensor.Tensor) {
	r.events = append(r.events, event{method: "act", name: layer, img: r.seen[layer], digest: digest(y)})
	r.seen[layer]++
	if r.rng != nil && r.rng.Float64() < 0.2 {
		r.flip(y)
	}
}

// injectors returns the three legs of the differential, fresh per run:
// none, a recording pass-through, and a seeded corrupting recorder.
func injectors(seed string) []func() *recorder {
	return []func() *recorder{
		func() *recorder { return nil },
		func() *recorder { return newRecorder("") },
		func() *recorder { return newRecorder(seed) },
	}
}

func asInjector(r *recorder) FaultInjector {
	if r == nil {
		return nil // a typed nil would arm the fault path
	}
	return r
}

func sameRun(t *testing.T, label string, got, want [][]*tensor.Tensor, gotErr, wantErr error, gr, wr *recorder) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d images, reference %d", label, len(got), len(want))
	}
	for img := range want {
		if len(got[img]) != len(want[img]) {
			t.Fatalf("%s: image %d has %d outputs, reference %d", label, img, len(got[img]), len(want[img]))
		}
		for oi, w := range want[img] {
			g := got[img][oi]
			if (g == nil) != (w == nil) {
				t.Fatalf("%s: image %d output %d nil-ness differs", label, img, oi)
			}
			if w == nil {
				continue
			}
			if g.Shape() != w.Shape() || digest(g) != digest(w) {
				t.Fatalf("%s: image %d output %d differs from the reference (%v vs %v)", label, img, oi, g, w)
			}
		}
	}
	if gr == nil {
		return
	}
	if len(gr.events) != len(wr.events) {
		t.Fatalf("%s: %d injector calls, reference %d", label, len(gr.events), len(wr.events))
	}
	for i := range wr.events {
		if gr.events[i] != wr.events[i] {
			t.Fatalf("%s: injector call %d is %+v, reference %+v", label, i, gr.events[i], wr.events[i])
		}
	}
}

// oddNet holds what the proxies and tinyNet lack: fused leaky and sigmoid
// epilogues, LRN, max pool, a residual add, scale, upsample, a dropout
// that is itself a graph output while its producer is read again after
// it (a corruption of the alias must reach that reader), and four flattens — of the caller's
// input (never a view), of a buffer read again later (a copy), of a
// buffer that dies with it (a view), and of that view (a view of a view).
func oddNet(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("oddnet", [4]int{1, 4, 8, 8})
	b.Flatten("flat_in")
	m := b.From("data").Conv("c1", 6, 3, 1, 1).LeakyReLU("lk", 0.1).LRN("lrn", 3, 1e-2, 0.75, 1).MaxPool("mp", 2, 2, 0)
	m.Conv("c2", 6, 3, 1, 1).Sigmoid("sg").AddJoin("res", "mp").Scale("sc").Upsample("up").Dropout("drop")
	m.Flatten("flat_shared").FC("fc1", 5).Softmax("p1")
	b.From("up").GlobalAvgPool("gap").Flatten("flat_view").Flatten("flat_again").FC("fc2", 5)
	b.G.Outputs = []string{"p1", "fc2", "drop", "flat_in"}
	g := b.Done()
	materialize(t, g)
	return g
}

// oracleModel is one graph of the differential with inputs of its shape;
// disable names the builder passes to skip (layers the optimizer would
// remove or fuse then reach the runtime as they are).
type oracleModel struct {
	name    string
	g       *graph.Graph
	pool    []*tensor.Tensor
	disable []string
}

func oracleModels(t *testing.T) []oracleModel {
	t.Helper()
	var ms []oracleModel
	add := func(name string, g *graph.Graph, disable ...string) {
		src := fixrand.NewKeyed("oracle-x/" + name)
		s := g.InputShape
		pool := make([]*tensor.Tensor, 8)
		for i := range pool {
			x := tensor.New(s[0], s[1], s[2], s[3])
			for j := range x.Data {
				x.Data[j] = float32(src.NormFloat64())
			}
			pool[i] = x
		}
		ms = append(ms, oracleModel{name, g, pool, disable})
	}
	add("tinynet", tinyNet(t))
	add("tinynet-raw", tinyNet(t), PassDeadLayerRemoval, PassVerticalFusion, PassHorizontalMerge)
	add("oddnet", oddNet(t))
	add("oddnet-raw", oddNet(t), PassDeadLayerRemoval)
	for _, name := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
		g, err := models.BuildProxy(name, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		add(name, g)
	}
	det, err := models.BuildDetectorProxy("detectnet-proxy", 24)
	if err != nil {
		t.Fatal(err)
	}
	add("detector", det)
	return ms
}

// batchOf draws n inputs from the pool; from two images up the last
// repeats the first, as index bodies that share a corpus tensor do.
func batchOf(pool []*tensor.Tensor, n int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = pool[i%len(pool)]
	}
	if n > 1 {
		xs[n-1] = xs[0]
	}
	return xs
}

type oraclePrecision struct {
	name string
	cfg  func(cfg *BuildConfig, calib []*tensor.Tensor)
}

var oraclePrecisions = []oraclePrecision{
	{"fp32", func(c *BuildConfig, _ []*tensor.Tensor) { c.Precision = tensor.FP32 }},
	{"fp16", func(c *BuildConfig, _ []*tensor.Tensor) { c.Precision = tensor.FP16 }},
	{"int8-percentile", func(c *BuildConfig, calib []*tensor.Tensor) {
		c.Precision, c.Calibrator = tensor.INT8, PercentileCalibrator{Images: calib, Pct: 99.9}
	}},
}

// TestScheduleMatchesFrozenInterpreter is ROADMAP 1(a)'s compiled leg:
// model × precision × build id × workers × batch × injector, execute
// against refInfer.
func TestScheduleMatchesFrozenInterpreter(t *testing.T) {
	builds, batches := []int{1, 2, 3, 4}, []int{1, 2, 8, 9} // 9 > ctxCap
	if testing.Short() || raceEnabled {
		builds, batches = []int{1}, []int{2, 9}
	}
	defer kernels.SetWorkers(kernels.Workers())
	for _, m := range oracleModels(t) {
		for _, p := range oraclePrecisions {
			for _, id := range builds {
				spec := gpusim.XavierNX()
				if id%2 == 0 {
					spec = gpusim.XavierAGX()
				}
				cfg := DefaultConfig(spec, id)
				p.cfg(&cfg, m.pool[:3])
				cfg.DisablePasses = m.disable
				e, err := Build(m.g, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", m.name, p.name, id, err)
				}
				label := fmt.Sprintf("%s/%s/build%d", m.name, p.name, id)
				diffEngine(t, label, e, m.pool, batches)
			}
		}
	}
}

func diffEngine(t *testing.T, label string, e *Engine, pool []*tensor.Tensor, batches []int) {
	t.Helper()
	for ii, mk := range injectors(label) {
		// Whole graph, every batch size. The reference runs once; the
		// schedule runs under one and two kernel workers.
		for _, bn := range batches {
			xs := batchOf(pool, bn)
			wr := mk()
			want, wantErr := refInfer(e, xs, asInjector(wr), nil, 0, -1, nil)
			for _, workers := range []int{1, 2} {
				kernels.SetWorkers(workers)
				gr := mk()
				got, gotErr := e.InferBatchCtx(nil, xs, asInjector(gr), nil, 0)
				sameRun(t, fmt.Sprintf("%s inj%d batch%d workers%d", label, ii, bn, workers), got, want, gotErr, wantErr, gr, wr)
			}
		}
	}
}

// TestScheduleGuardAbortParity arms a guard that aborts at layer k, for
// every k: a budget of half a second and a cost table that charges one
// second at layer k alone. Same error text as the reference, and no
// injector draw for the aborted layer or any after it.
func TestScheduleGuardAbortParity(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "oracle-guard-x", 3)
	ctx := rtctx.WithBudget(0.5)
	for k := 0; k <= len(e.Graph.Layers); k++ {
		costs := make([]float64, len(e.Graph.Layers))
		if k < len(costs) {
			costs[k] = 1
		}
		ref, guard := budgetGuard{ctx: ctx, costs: costs}, budgetGuard{ctx: ctx, costs: costs}
		wr, gr := newRecorder("guard"), newRecorder("guard")
		want, wantErr := refInfer(e, xs, wr, ref.charge, 0, -1, nil)
		got, gotErr := e.execute(xs, gr, &guard)
		sameRun(t, fmt.Sprintf("abort at %d", k), got, want, gotErr, wantErr, gr, wr)
		if k > 0 && k < len(e.Graph.Layers) && !errors.Is(gotErr, ErrBudgetExhausted) {
			t.Fatalf("abort at %d: err=%v, want ErrBudgetExhausted", k, gotErr)
		}
	}
}

// TestScheduleHostilePlanErrorParity corrupts a built engine the way a
// hostile plan can — geometry that is degenerate at run time, a conv and
// an fc with no weights, an fc whose weight length is wrong — recompiles
// it, and holds execute to the reference's error text at the same step.
func TestScheduleHostilePlanErrorParity(t *testing.T) {
	layerOf := func(e *Engine, op graph.OpType) *graph.Layer {
		for _, l := range e.Graph.Layers {
			if l.Op == op {
				return l
			}
		}
		t.Fatalf("no %s layer", op)
		return nil
	}
	cases := []struct {
		name  string
		x     *tensor.Tensor // nil: the declared input shape
		wreck func(e *Engine)
	}{
		{"conv-zero-stride", nil, func(e *Engine) { layerOf(e, graph.OpConv).Conv.Stride = 0 }},
		{"conv-negative-pad", nil, func(e *Engine) { layerOf(e, graph.OpConv).Conv.Pad = -1 }},
		{"conv-output-vanishes", tensor.New(1, 4, 1, 1), func(e *Engine) { layerOf(e, graph.OpConv).Conv.Pad = 0 }},
		{"conv-no-weights", nil, func(e *Engine) { delete(layerOf(e, graph.OpConv).Weights, "w") }},
		{"fc-no-weights", nil, func(e *Engine) { delete(layerOf(e, graph.OpFC).Weights, "w") }},
		{"fc-length-mismatch", nil, func(e *Engine) {
			l := layerOf(e, graph.OpFC)
			l.Weights["w"] = tensor.NewVec(l.Weights["w"].Len() - 1)
		}},
		{"fc-zero-units", nil, func(e *Engine) { layerOf(e, graph.OpFC).OutUnits = 0 }},
		{"input-of-another-shape", tensor.New(2, 4, 11, 9), func(*Engine) {}},
		// 1×1 convs padded by 2: the border windows lie wholly in the
		// padding, on every side. That is an answer, not an error; the
		// concat widens with them, so fc is given weights for its new input.
		{"conv-pad-beyond-kernel", nil, func(e *Engine) {
			for _, l := range e.Graph.Layers {
				if l.Op == graph.OpConv && l.Conv.Kernel == 1 {
					l.Conv.Pad = 2
				}
			}
			if err := e.Graph.Finalize(); err != nil {
				t.Fatal(err)
			}
			fc := layerOf(e, graph.OpFC)
			in := e.Graph.Layer(fc.Inputs[0]).OutShape
			w := tensor.NewVec(fc.OutUnits * in[1] * in[2] * in[3])
			for i := range w.Data {
				w.Data[i] = float32(i%7-3) / 8
			}
			fc.Weights["w"] = w
		}},
	}
	for _, tc := range cases {
		e, err := Build(tinyNet(t), nxCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		tc.wreck(e)
		e.plan = compile(e)
		x := tc.x
		if x == nil {
			x = batchInputs(t, "oracle-hostile-x", 1)[0]
		}
		xs := []*tensor.Tensor{x, x}
		wr, gr := newRecorder("hostile"), newRecorder("hostile")
		want, wantErr := refInfer(e, xs, wr, nil, 0, -1, nil)
		got, gotErr := e.InferBatchCtx(nil, xs, gr, nil, 0)
		sameRun(t, tc.name, got, want, gotErr, wantErr, gr, wr)
		switch {
		case tc.name == "conv-pad-beyond-kernel":
			if wantErr != nil {
				t.Fatalf("%s: %v, want an answer", tc.name, wantErr)
			}
		case tc.name != "input-of-another-shape" && wantErr == nil:
			t.Fatalf("%s: the reference accepted the wrecked plan", tc.name)
		}
	}
}
