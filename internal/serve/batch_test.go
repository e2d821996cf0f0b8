package serve_test

import (
	"fmt"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// Executor.DoBatchCtx on a pristine executor must be bit-identical to direct
// Engine.Infer per image, pay exactly one timed run for the whole batch,
// and stay on the tuned tier.
func TestExecutorBatchMatchesDirect(t *testing.T) {
	eng, _, dev, inputs := fixture(t)
	ex := newExec(t, nil, nil)
	xs := inputs[:5]
	br, err := ex.DoBatchCtx(nil, xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if br.Tier != serve.TierTuned || br.Degraded || br.Retries != 0 {
		t.Fatalf("pristine batch degraded: %+v", br)
	}
	if len(br.Outputs) != len(xs) {
		t.Fatalf("batch outputs %d, want %d", len(br.Outputs), len(xs))
	}
	for i, x := range xs {
		want, err := eng.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(br.Outputs[i], want) {
			t.Fatalf("batch image %d differs from direct Infer", i)
		}
	}
	direct := eng.Run(core.RunConfig{Device: dev, RunIndex: 3})
	if br.LatencySec != direct.LatencySec {
		t.Fatalf("batch latency %v, want one run %v", br.LatencySec, direct.LatencySec)
	}
}

// Under a 100%-fault plan the batch drains to the FP32 tier and every
// image's outputs match graph.Execute — never an error.
func TestExecutorBatchTotalFaultServesFP32(t *testing.T) {
	_, g, _, inputs := fixture(t)
	ex := newExec(t, faults.Scenario("batch-total", 1).New("nx"), nil)
	xs := inputs[:4]
	br, err := ex.DoBatchCtx(nil, xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if br.Tier != serve.TierFP32 || !br.Degraded {
		t.Fatalf("served by %v under total faults, want fp32", br.Tier)
	}
	for i, x := range xs {
		want, err := g.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(br.Outputs[i], want) {
			t.Fatalf("image %d fallback outputs differ from graph.Execute", i)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	_, _, _, inputs := fixture(t)
	ex := newExec(t, nil, nil)
	if _, err := ex.DoBatchCtx(nil, nil, 0); err == nil {
		t.Fatal("empty executor batch accepted")
	}
	if _, err := ex.DoBatchCtx(nil, []*tensor.Tensor{inputs[0], nil}, 0); err == nil {
		t.Fatal("nil executor batch input accepted")
	}
	p := newPool(t, nil)
	if _, err := p.DoBatchCtx(nil, nil, 0); err == nil {
		t.Fatal("empty pool batch accepted")
	}
	if _, err := p.DoBatchCtx(nil, []*tensor.Tensor{nil}, 0); err == nil {
		t.Fatal("nil pool batch input accepted")
	}
}

// Quorum voting over batched outputs must match per-image serving: a
// fresh identically-configured fleet answering image by image produces
// the same winners, voter counts and bit-identical outputs (issue
// satellite).
func TestPoolBatchQuorumMatchesPerImage(t *testing.T) {
	_, _, _, inputs := fixture(t)
	xs := inputs[:6]
	batch := newPool(t, func(c *serve.PoolConfig) { c.Quorum = true })
	single := newPool(t, func(c *serve.PoolConfig) { c.Quorum = true })
	br, err := batch.DoBatchCtx(nil, xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(xs) {
		t.Fatalf("batch results %d, want %d", len(br.Results), len(xs))
	}
	for i := range xs {
		sr, err := single.DoBatchCtx(nil, xs[i:i+1], 0)
		if err != nil {
			t.Fatal(err)
		}
		res, got := sr.Results[0], br.Results[i]
		if got.Fallback || res.Fallback {
			t.Fatalf("image %d fell back with zero faults (batch=%v single=%v)", i, got.Fallback, res.Fallback)
		}
		if got.Replica != res.Replica || got.BuildID != res.BuildID {
			t.Fatalf("image %d winner replica %d/build %d, per-image %d/%d",
				i, got.Replica, got.BuildID, res.Replica, res.BuildID)
		}
		if got.Voters != res.Voters || got.Majority != res.Majority {
			t.Fatalf("image %d vote shape %d/%d, per-image %d/%d",
				i, got.Voters, got.Majority, res.Voters, res.Majority)
		}
		if got.LatencySec != res.LatencySec {
			t.Fatalf("image %d release %v, per-image %v", i, got.LatencySec, res.LatencySec)
		}
		if !sameOutputs(got.Outputs, res.Outputs) {
			t.Fatalf("image %d batched quorum outputs differ from per-image outputs", i)
		}
	}
	if br.LatencySec <= 0 {
		t.Fatal("batch release time not modeled")
	}
}

// Round-robin batches ride one replica; the outputs must match that
// replica's direct batched inference.
func TestPoolBatchRoundRobin(t *testing.T) {
	_, _, _, inputs := fixture(t)
	xs := inputs[:4]
	p := newPool(t, nil)
	engines := p.Engines()
	br, err := p.DoBatchCtx(nil, xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	slot := br.Results[0].Replica
	if slot < 0 {
		t.Fatalf("round-robin batch fell back with zero faults: %+v", br.Results[0])
	}
	want, err := engines[slot].InferBatchCtx(nil, xs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if br.Results[i].Replica != slot {
			t.Fatalf("image %d served by replica %d, batch replica %d", i, br.Results[i].Replica, slot)
		}
		if !sameOutputs(br.Results[i].Outputs, want[i]) {
			t.Fatalf("image %d differs from replica %d batched Infer", i, slot)
		}
	}
}

// A fleet under total havoc still answers batched requests (FP32 tier or
// reference fill-in) — never an error to the caller.
func TestPoolBatchUnderHavoc(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := newPool(t, func(c *serve.PoolConfig) {
		c.Quorum = true
		c.ReplicaInjector = func(slot int, e *core.Engine) core.FaultInjector {
			return faults.ReplicaHavoc("batch-havoc", "").New(fmt.Sprintf("replica%d", slot))
		}
	})
	for req := 0; req < 6; req++ {
		br, err := p.DoBatchCtx(nil, inputs[:3], req)
		if err != nil {
			t.Fatalf("batch %d errored under havoc: %v", req, err)
		}
		for i, r := range br.Results {
			if r.Outputs == nil {
				t.Fatalf("batch %d image %d has no outputs under havoc", req, i)
			}
		}
	}
}
