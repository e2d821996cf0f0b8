package serve_test

import (
	"fmt"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// The executor is a Pool of one. Differential: for batches of 1 to 4,
// a pristine Pool of one must return outputs bit-identical to its
// replica's Engine.Infer per image, pay exactly one timed run for the
// whole batch — LatencySec equal to Engine.Run's — and never degrade.
// Its stats count the batch once in Requests and each image once among
// the served.
func TestExecutorBatchMatchesDirect(t *testing.T) {
	_, _, dev, inputs := fixture(t)
	for n := 1; n <= 4; n++ {
		p := poolOfOne(t, nil)
		eng := p.Engines()[0]
		xs := inputs[n : 2*n]
		br, err := p.DoBatchCtx(nil, xs, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(xs) {
			t.Fatalf("batch of %d: %d results", n, len(br.Results))
		}
		direct := eng.Run(core.RunConfig{Device: dev, RunIndex: n})
		if br.LatencySec != direct.LatencySec || br.DeadlineMiss {
			t.Fatalf("batch of %d: latency %v (miss %v), want one run %v", n, br.LatencySec, br.DeadlineMiss, direct.LatencySec)
		}
		for i, x := range xs {
			want, err := eng.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			res := br.Results[i]
			if res.Fallback || res.Replica != 0 || res.LatencySec != direct.LatencySec {
				t.Fatalf("batch of %d, image %d degraded: %+v", n, i, res)
			}
			if !sameOutputs(res.Outputs, want) {
				t.Fatalf("batch of %d, image %d differs from direct Infer", n, i)
			}
		}
		if st := p.Stats(); st.Requests != 1 || served(st) != uint64(n) {
			t.Fatalf("batch of %d: %d requests, %d images served; want 1 and %d", n, st.Requests, served(st), n)
		}
	}
}

// Under a 100%-fault plan a batch on a Pool of one drains to the FP32
// tier and every image's outputs match graph.Execute — never an error.
// The one batch is one request and one failed replica attempt, its four
// images four FP32 answers.
func TestExecutorBatchTotalFaultServesFP32(t *testing.T) {
	_, g, _, inputs := fixture(t)
	p := poolOfOne(t, faults.Scenario("batch-total", 1).New("nx"))
	xs := inputs[:4]
	br, err := p.DoBatchCtx(nil, xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if !br.Results[i].Fallback {
			t.Fatalf("image %d served by replica %d under total faults, want fp32", i, br.Results[i].Replica)
		}
		want, err := g.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(br.Results[i].Outputs, want) {
			t.Fatalf("image %d fallback outputs differ from graph.Execute", i)
		}
	}
	if st := p.Stats(); st.Requests != 1 || st.ReplicaFails != 1 || st.FP32Served != 4 || st.QuorumServed != 0 {
		t.Fatalf("stats %+v, want 1 request, 1 replica fail, 4 FP32 images", st)
	}
}

func TestBatchValidation(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := newPool(t, nil)
	if _, err := p.DoBatchCtx(nil, nil, 0); err == nil {
		t.Fatal("empty pool batch accepted")
	}
	if _, err := p.DoBatchCtx(nil, []*tensor.Tensor{inputs[0], nil}, 0); err == nil {
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
	batch := newPool(t, nil)
	single := newPool(t, nil)
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

// A fleet under total havoc still answers batched requests (FP32 tier or
// reference fill-in) — never an error to the caller.
func TestPoolBatchUnderHavoc(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := newPool(t, func(c *serve.PoolConfig) {
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
