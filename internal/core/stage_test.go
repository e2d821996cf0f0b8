package core

import (
	"errors"
	"slices"
	"testing"

	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// Every blessed cut must be a genuine single-tensor boundary: no layer
// before the boundary may feed a layer after the cut, and no graph
// output may sit in the front half.
func TestStageCutsAreSingleTensorBoundaries(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	g := e.Graph
	cuts := e.StageCuts()
	if len(cuts) == 0 {
		t.Fatal("tinynet has no valid cuts; expected at least the pre-FC boundary")
	}
	idx := map[string]int{}
	for i, l := range g.Layers {
		idx[l.Name] = i
	}
	for _, c := range cuts {
		if c < 1 || c >= len(g.Layers) {
			t.Fatalf("cut %d out of range (plan has %d layers)", c, len(g.Layers))
		}
		for i, l := range g.Layers[:c-1] {
			for _, consumer := range g.Layers {
				if slices.Contains(consumer.Inputs, l.Name) && idx[consumer.Name] >= c {
					t.Errorf("cut %d: layer %d (%s) feeds %s across the boundary", c, i, l.Name, consumer.Name)
				}
			}
		}
		for _, o := range g.Outputs {
			if idx[o] < c-1 {
				t.Errorf("cut %d strands output %s in the front half", c, o)
			}
		}
	}
	// The skip region must be closed: relu1 feeds both projections, so no
	// cut may fall between proj1 and proj2.
	p1, ok1 := idx["proj1"]
	p2, ok2 := idx["proj2"]
	if ok1 && ok2 {
		lo, hi := p1, p2
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, c := range cuts {
			if c > lo+1 && c <= hi {
				t.Errorf("cut %d falls inside the relu1 fan-out region (%d..%d)", c, lo, hi)
			}
		}
	}
}

// Chaining stage runs over every valid cut must reproduce the one-shot
// batched inference bit for bit — the property cluster failover leans
// on for its "never a wrong answer" guarantee.
func TestInferRangeChainMatchesInferBatch(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "stage-chain-x", 3)
	want, err := e.InferBatchCtx(nil, xs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Graph.Layers)
	for _, c := range e.StageCuts() {
		front, err := e.InferRangeCtx(nil, xs, 0, c, nil, nil, 0)
		if err != nil {
			t.Fatalf("cut %d front: %v", c, err)
		}
		boundary := make([]*tensor.Tensor, len(xs))
		for i := range front {
			if len(front[i]) != 1 {
				t.Fatalf("cut %d: front stage returned %d tensors, want the 1 boundary", c, len(front[i]))
			}
			boundary[i] = front[i][0]
		}
		back, err := e.InferRangeCtx(nil, boundary, c, n, nil, nil, 0)
		if err != nil {
			t.Fatalf("cut %d back: %v", c, err)
		}
		for i := range xs {
			sameBitsBatch(t, "cut", back[i], want[i])
		}
	}
}

// A three-stage chain across two cuts also matches (the hand-off tensor
// itself is a valid stage input).
func TestInferRangeThreeStageChain(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	cuts := e.StageCuts()
	if len(cuts) < 2 {
		t.Skip("tinynet yielded fewer than two cuts")
	}
	xs := batchInputs(t, "stage-chain3-x", 2)
	want, err := e.InferBatchCtx(nil, xs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, cuts[0], cuts[len(cuts)-1], len(e.Graph.Layers)}
	cur := xs
	var outs [][]*tensor.Tensor
	for s := 0; s+1 < len(bounds); s++ {
		res, err := e.InferRangeCtx(nil, cur, bounds[s], bounds[s+1], nil, nil, 0)
		if err != nil {
			t.Fatalf("stage [%d,%d): %v", bounds[s], bounds[s+1], err)
		}
		if s+2 < len(bounds) {
			next := make([]*tensor.Tensor, len(res))
			for i := range res {
				next[i] = res[i][0]
			}
			cur = next
		} else {
			outs = res
		}
	}
	for i := range xs {
		sameBitsBatch(t, "three-stage", outs[i], want[i])
	}
}

// A hopeless budget aborts inside the stage's own range with
// ErrBudgetExhausted; burnedSec from upstream hops counts against it.
func TestInferRangeCtxBudgetAbort(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	cuts := e.StageCuts()
	if len(cuts) == 0 {
		t.Fatal("no cuts")
	}
	c := cuts[len(cuts)-1]
	xs := batchInputs(t, "stage-budget-x", 1)
	front, err := e.InferRangeCtx(nil, xs, 0, c, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := rtctx.WithBudget(1e-9)
	_, err = e.InferRangeCtx(ctx, []*tensor.Tensor{front[0][0]}, c, len(e.Graph.Layers), nil, testDevice(), 0)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("1ns budget on the back stage: err=%v, want ErrBudgetExhausted", err)
	}
	// An ample budget with upstream burn already past it aborts too.
	ample := rtctx.WithBudget(10)
	_, err = e.InferRangeCtx(ample, []*tensor.Tensor{front[0][0]}, c, len(e.Graph.Layers), nil, testDevice(), 11)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("burned-out budget: err=%v, want ErrBudgetExhausted", err)
	}
}

// Stage weight attribution partitions the engine total, and every cut
// moves a positive payload.
func TestStageWeightAndBoundaryBytes(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Graph.Layers)
	for _, c := range e.StageCuts() {
		if got := e.StageWeightBytes(0, c) + e.StageWeightBytes(c, n); got != e.WeightBytes() {
			t.Errorf("cut %d: stage weights sum %d, engine total %d", c, got, e.WeightBytes())
		}
		if e.BoundaryBytes(c) <= 0 {
			t.Errorf("cut %d: boundary moves %d bytes", c, e.BoundaryBytes(c))
		}
	}
	if e.BoundaryBytes(0) != 0 || e.BoundaryBytes(n) != 0 {
		t.Error("out-of-range boundary positions must price to zero")
	}
}
