package core

import (
	"errors"
	"testing"

	"edgeinfer/internal/gpusim"
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
