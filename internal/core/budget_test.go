package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/rtctx"
)

func testDevice() *gpusim.Device {
	spec := gpusim.XavierNX()
	return gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
}

func TestLayerCostsCoverExpectedLatency(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice()
	costs := e.LayerCostsSec(dev)
	if len(costs) != len(e.Graph.Layers) {
		t.Fatalf("%d layer costs for %d layers", len(costs), len(e.Graph.Layers))
	}
	var total float64
	for _, c := range costs {
		total += c
	}
	want := e.ExpectedLatencySec(dev, false)
	if diff := total - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("layer costs sum %.9g, ExpectedLatencySec %.9g", total, want)
	}
	// Every launch must charge a layer of the optimized graph, or the
	// guard would never collect its cost.
	for i, li := range e.charge {
		if li < 0 {
			t.Fatalf("launch %d (%v) charged to a layer absent from optimized graph", i, e.Launches[i].Layers)
		}
	}
}

// The guard's cached table follows the device it is asked for: a
// second device, or the same one at another clock, is priced afresh, and
// each answer equals LayerCostsSec on that device.
func TestGuardCostsFollowDevice(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	nx := testDevice()
	slow := gpusim.NewDevice(nx.Spec, nx.ClockMHz/2)
	agx := gpusim.NewDevice(gpusim.XavierAGX(), 0)
	for _, dev := range []*gpusim.Device{nx, slow, nx, agx, agx, slow} {
		got, want := e.guardCostsSec(dev), e.LayerCostsSec(dev)
		if !slices.Equal(got, want) {
			t.Fatalf("%s@%.0f: guard costs %v, want %v", dev.Spec.Short(), dev.ClockMHz, got, want)
		}
	}
}

func TestInferBatchCtxAbortsMidGraph(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice()
	xs := batchInputs(t, "budget-abort-x", 3)

	// A budget below the full expected schedule must abort mid-graph.
	tight := e.ExpectedLatencySec(dev, false) / 2
	_, err = e.InferBatchCtx(rtctx.WithBudget(tight), xs, nil, dev, 0)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("tight budget: err = %v, want ErrBudgetExhausted", err)
	}

	// Burned latency from earlier attempts counts against the budget
	// even when the schedule alone would fit.
	generous := e.ExpectedLatencySec(dev, false) * 2
	_, err = e.InferBatchCtx(rtctx.WithBudget(generous), xs, nil, dev, generous)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("burned budget: err = %v, want ErrBudgetExhausted", err)
	}
}

func TestInferBatchCtxUnarmedMatchesFaulty(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice()
	xs := batchInputs(t, "budget-pristine-x", 2)

	want, err := e.InferBatchCtx(nil, xs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []*rtctx.Request{
		nil,                    // no context
		rtctx.Background(),     // context without budget
		{BudgetSec: 1e-9},      // budget but Abort unarmed
		rtctx.WithBudget(10.0), // armed with a generous budget
	} {
		got, err := e.InferBatchCtx(ctx, xs, nil, dev, 0)
		if err != nil {
			t.Fatalf("ctx %+v: %v", ctx, err)
		}
		for img := range want {
			sameBitsBatch(t, "ctx outputs", got[img], want[img])
		}
	}

	// Armed but no device: the guard cannot price layers, so the call
	// degrades to the plain path instead of guessing.
	if _, err := e.InferBatchCtx(rtctx.WithBudget(1e-12), xs, nil, nil, 0); err != nil {
		t.Fatalf("nil device must disable the guard: %v", err)
	}
}

// TestLayerCostsAccountEveryLaunch: on every zoo model on both
// platforms, and on the five classifier proxies, the per-layer table the
// budget guard, the partitioner and the WCET bound read adds up to the
// whole expected schedule — no launch is left uncharged (the detectors'
// sort launches once were) — before and after a Save → Load round trip.
func TestLayerCostsAccountEveryLaunch(t *testing.T) {
	type plan struct {
		name string
		g    *graph.Graph
		spec gpusim.DeviceSpec
	}
	var plans []plan
	for _, spec := range gpusim.Platforms() {
		for _, name := range models.List() {
			plans = append(plans, plan{name, models.MustBuild(name), spec})
		}
	}
	for _, name := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
		g, err := models.BuildProxy(name, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan{name + "-proxy", g, gpusim.XavierNX()})
	}
	for _, p := range plans {
		built, err := Build(p.g, DefaultConfig(p.spec, 1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := built.Save(&buf); err != nil {
			t.Fatalf("%s on %s: %v", p.name, p.spec.Name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s on %s: %v", p.name, p.spec.Name, err)
		}
		dev := gpusim.NewDevice(p.spec, gpusim.PaperLatencyClock(p.spec))
		for _, e := range []*Engine{built, loaded} {
			var total float64
			for _, c := range e.LayerCostsSec(dev) {
				total += c
			}
			want := e.ExpectedLatencySec(dev, false)
			if math.Abs(total-want) > 1e-9*want {
				t.Errorf("%s on %s: layer costs sum %.6g ms, ExpectedLatencySec %.6g ms",
					p.name, p.spec.Name, total*1e3, want*1e3)
			}
		}
	}
}
