package core

import (
	"bytes"
	"testing"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// TestInferBatchSteadyStateAllocs is the dynamic cross-check of the
// hotalloc analyzer's static verdict on execute: once an engine's
// execution contexts exist, a call allocates only what the caller
// receives — the outs slices and each image's graph outputs (tensor
// header + data) — and nothing per layer: intermediates live in context
// slots. The interpreter this replaced allocated 10 objects per Infer
// and, because a batch of 8 overflowed its per-shape arena as soon as
// two convs shared a shape, 73 (vgg16) to 105 (alexnet) per batch of 8.
func TestInferBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	defer kernels.SetWorkers(kernels.SetWorkers(1))
	// vgg16 and alexnet are the arena-overflow cases; tinynet adds the
	// multi-input and view steps (concat, dropout) the proxies lack.
	graphs := map[string]*graph.Graph{"tinynet": tinyNet(t)}
	for _, model := range []string{"vgg16", "alexnet"} {
		g, err := models.BuildProxy(model, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		graphs[model] = g
	}
	for model, g := range graphs {
		e, err := Build(g, DefaultConfig(gpusim.XavierNX(), 1))
		if err != nil {
			t.Fatal(err)
		}
		dev := testDevice()
		generous := rtctx.WithBudget(e.ExpectedLatencySec(dev, false) * 100)
		in := g.Layers[0].OutShape
		xs := make([]*tensor.Tensor, ctxCap)
		for i := range xs {
			xs[i] = tensor.New(1, in[1], in[2], in[3])
		}
		cases := []struct {
			name   string
			budget float64
			call   func() error
		}{
			// The two outs slices and the softmax output.
			{"Infer", 4, func() error {
				_, err := e.Infer(xs[0])
				return err
			}},
			// One outer slice, then an inner slice and an output per image.
			{"InferBatchCtx", float64(1 + 3*len(xs)), func() error {
				_, err := e.InferBatchCtx(nil, xs, nil, nil, 0)
				return err
			}},
			// The serving path: an armed budget and a device price every
			// layer at no cost of its own — the guard lives on the
			// caller's stack and the cost table is computed once per
			// engine and device.
			{"InferBatchCtx/armed", float64(1 + 3*len(xs)), func() error {
				_, err := e.InferBatchCtx(generous, xs, nil, dev, 0)
				return err
			}},
		}
		for _, c := range cases {
			for i := 0; i < 3; i++ { // create the contexts
				if err := c.call(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := c.call(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.budget {
				t.Errorf("%s %s allocates %.1f objects per call in steady state, budget %.0f", model, c.name, allocs, c.budget)
			}
			t.Logf("%s %s: %.1f allocs per call", model, c.name, allocs)
		}
	}
}

// TestReferenceSteadyStateAllocs: the FP32 reference replays the compiled
// schedule, so once its contexts exist an image costs what Engine.Infer
// costs, where graph.Execute pays a name-keyed map and, per layer, an
// input slice and a tensor.
func TestReferenceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	for _, model := range []string{"vgg16", "alexnet", "resnet18"} {
		g, err := models.BuildProxy(model, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := Reference(g)
		if err != nil {
			t.Fatal(err)
		}
		s := g.InputShape
		x := tensor.New(s[0], s[1], s[2], s[3])
		infer := func() {
			if _, err := r.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // create the contexts
			infer()
		}
		allocs := testing.AllocsPerRun(20, infer)
		execute := testing.AllocsPerRun(5, func() {
			if _, err := g.Execute(x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s reference allocates %.1f objects per image in steady state, budget 4", model, allocs)
		}
		t.Logf("%s: reference %.1f allocs per image, graph.Execute %.1f", model, allocs, execute)
	}
}

// A timing-cache hit allocates nothing: the tuner appends the key into a
// stack buffer and indexes the map with it, so a warm build's tactic
// search costs no garbage per candidate. The key string is built only to
// insert a miss.
func TestTunerCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	stats := &PassStats{}
	tn := &tuner{
		dev:    testDevice(),
		noise:  fixrand.NewKeyed("tuner/alloc-test"),
		sigma:  0.08,
		devKey: "NX@1109MHz",
		cache:  NewTimingCache(),
		stats:  stats,
	}
	d := kernels.ConvDims{Batch: 1, InC: 256, H: 14, W: 14, OutC: 256, OutH: 14, OutW: 14, Kernel: 3, Stride: 1, Groups: 1}
	var specs []kernels.LaunchSpec
	for _, v := range kernels.ConvCandidates(d, tensor.FP16) {
		specs = append(specs, kernels.PlanConv(v, d))
	}
	cold := make([]float64, len(specs))
	for i, ls := range specs {
		cold[i] = tn.measure("res4a_branch2b", d, ls)
	}
	if stats.CacheMisses != len(specs) || tn.cache.Len() != len(specs) {
		t.Fatalf("cold pass: %d misses, %d entries; want %d", stats.CacheMisses, tn.cache.Len(), len(specs))
	}
	if n := testing.AllocsPerRun(20, func() {
		for i, ls := range specs {
			if tn.measure("res4a_branch2b", d, ls) != cold[i] {
				t.Fatal("a hit returned another time than the miss stored")
			}
		}
	}); n != 0 {
		t.Fatalf("%d cache hits allocate %v times, want 0", len(specs), n)
	}
}

// ParseTimingKey cuts a valid key without allocating: the predictor
// parses every key of the cache it trains on.
func TestParseTimingKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	v := kernels.Variant{Family: kernels.FamHMMAConv, TileM: 128, TileN: 64, TileK: 64, SplitK: 2, Precision: tensor.FP16, FusedAct: true, NHWC: true}
	d := kernels.ConvDims{Batch: 1, InC: 512, H: 7, W: 7, OutC: 512, OutH: 7, OutW: 7, Kernel: 3, Stride: 1, Groups: 1}
	key := TimingKey("dev|with|pipes@1109MHz", v, d, tensor.FP16)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, _, err := ParseTimingKey(key); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseTimingKey allocates %v times, want 0", n)
	}
}

// TestWarmBuildAllocs pins what a fully warm build of resnet18 allocates:
// every tactic comes from the cache, so what remains is the engine
// itself — the cloned graph, the pass bookkeeping, the launch list and
// the compiled schedule — and nothing per candidate. The count was 1 915
// when every candidate rendered its kernel name and cache key and forked
// two heap noise streams, and every fusion scan listed consumers per
// layer.
func TestWarmBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	g, err := models.Build("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	cfg := nxCfg(1)
	cfg.TimingCache = NewTimingCache()
	if _, err := Build(g, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.BuildID, cfg.CanonicalWarmID = 2, true
	n := testing.AllocsPerRun(10, func() {
		e, err := Build(g, cfg)
		if err != nil || !e.Report.WarmBuild {
			t.Fatalf("warm build: err %v, warm %v", err, err == nil && e.Report.WarmBuild)
		}
	})
	const pinned = 450
	if n != pinned {
		t.Fatalf("warm resnet18 build allocates %v times, pinned at %d", n, pinned)
	}
}

// TestLoadAllocs pins what admitting resnet18's plans costs: decoding
// the header and the weight section, attaching the weights, one
// planlint pass over the plan IR, then finalizing, compiling and
// charging the launches. Running planlint in Load added 42 allocations
// to the timing-only plan's count and 34 to the proxy's.
func TestLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	proxy, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		pinned float64
	}{
		{"timing-only", models.MustBuild("resnet18"), 650},
		{"numeric proxy", proxy, 269},
	} {
		e, err := Build(tc.g, nxCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		var plan bytes.Buffer
		if err := e.Save(&plan); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(10, func() {
			if _, err := Load(bytes.NewReader(plan.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		if n != tc.pinned {
			t.Errorf("loading the %s resnet18 plan allocates %v times, pinned at %v", tc.name, n, tc.pinned)
		}
	}
}
