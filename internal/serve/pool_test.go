package serve_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// havocOn returns a ReplicaInjector targeting one build id with the
// replica-havoc plan (sustained latency inflation + silent corruption).
// Rebuilt replicas carry the canonical build id 0 and so heal.
func havocOn(buildID int, seed string) func(int, *core.Engine) core.FaultInjector {
	return func(slot int, e *core.Engine) core.FaultInjector {
		if e.BuildID != buildID {
			return nil
		}
		return faults.ReplicaHavoc(seed, "").New(fmt.Sprintf("replica%d", slot))
	}
}

func newPool(t *testing.T, mut func(*serve.PoolConfig)) *serve.Pool {
	t.Helper()
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	cfg := serve.PoolConfig{Model: "resnet18"}
	if mut != nil {
		mut(&cfg)
	}
	p, err := serve.NewPool(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// With no injected faults the fleet must be bit-identical to direct
// Engine.Infer on the serving replica, and the supervisor must record no
// transitions (issue acceptance criterion). A fleet of three hears all
// three voters and, when all three agree, answers when the second-fastest
// does; a fleet of one is a one-voter quorum that answers at its
// replica's run latency.
func TestPoolZeroFaultBitIdentity(t *testing.T) {
	_, _, dev, inputs := fixture(t)
	for _, k := range []int{1, 3} {
		p := newPool(t, func(c *serve.PoolConfig) { c.Replicas = k })
		engines := p.Engines()
		for i := 0; i < 6; i++ {
			x := inputs[i]
			br, err := p.DoBatchCtx(nil, inputs[i:i+1], i)
			if err != nil {
				t.Fatal(err)
			}
			res := br.Results[0]
			if res.Fallback || res.Replica < 0 {
				t.Fatalf("replicas=%d req %d fell back with zero faults: %+v", k, i, res)
			}
			want, err := engines[res.Replica].Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutputs(res.Outputs, want) {
				t.Fatalf("replicas=%d req %d outputs differ from replica %d direct Infer", k, i, res.Replica)
			}
			if res.Voters != k || 2*res.Majority <= k {
				t.Fatalf("replicas=%d req %d majority %d of %d voters with zero faults", k, i, res.Majority, res.Voters)
			}
			var lats []float64
			for _, e := range engines {
				lats = append(lats, e.Run(core.RunConfig{Device: dev, RunIndex: i}).LatencySec)
			}
			sort.Float64s(lats)
			if wantLat := lats[min(1, k-1)]; res.Majority == k && res.LatencySec != wantLat {
				t.Fatalf("replicas=%d req %d latency %v, want %v", k, i, res.LatencySec, wantLat)
			}
		}
		if got, want := p.Stats(), (serve.PoolStats{Requests: 6, QuorumServed: 6}); got != want {
			t.Fatalf("replicas=%d stats %+v, want %+v", k, got, want)
		}
		if lines := p.Transcript(); len(lines) != 0 {
			t.Fatalf("replicas=%d transitions with zero faults: %v", k, lines)
		}
		h := p.Health()
		if h.Active != k {
			t.Fatalf("replicas=%d active %d", k, h.Active)
		}
		for _, r := range h.Replicas {
			if r.State != "healthy" {
				t.Fatalf("replicas=%d replica %d state %s with zero faults", k, r.Slot, r.State)
			}
		}
	}
}

// Replica fleets must genuinely diverge: distinct build ids, and at
// least one pair of replicas choosing different tactics (paper Finding
// 6 is what makes quorum voting non-vacuous).
func TestPoolReplicasDiverge(t *testing.T) {
	p := newPool(t, nil)
	engines := p.Engines()
	ids := map[int]bool{}
	for _, e := range engines {
		if ids[e.BuildID] {
			t.Fatalf("duplicate build id %d in fleet", e.BuildID)
		}
		ids[e.BuildID] = true
	}
	diverged := false
	for layer, v := range engines[1].Choices {
		if w, ok := engines[2].Choices[layer]; ok && v != w {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("cold replicas 1 and 2 chose identical tactics everywhere; no divergence")
	}
}

// The full healing lifecycle: a latency-inflated + silently-corrupting
// replica is detected, quarantined, rebuilt warm through the shared
// timing cache (canonical build id 0), canary-validated and readmitted
// — and every request along the way is answered with the correct-tier
// argmax (no wrong-answer escapes).
func TestPoolQuarantineRebuildReadmit(t *testing.T) {
	_, _, _, inputs := fixture(t)
	const faultyBuild = 2 // slot 1 of a fresh registry (builds 1,2,3)
	p := newPool(t, func(c *serve.PoolConfig) {
		c.ReplicaInjector = havocOn(faultyBuild, "lifecycle")
		c.Canary = inputs[:4]
	})
	pristine := map[int]*core.Engine{}
	for _, e := range p.Engines() {
		pristine[e.BuildID] = e
	}
	for i := 0; i < 24; i++ {
		x := inputs[i%len(inputs)]
		br, err := p.DoBatchCtx(nil, []*tensor.Tensor{x}, i)
		if err != nil {
			t.Fatal(err)
		}
		res := br.Results[0]
		if res.Fallback {
			continue // FP32 tier is always a correct answer
		}
		eng := pristine[res.BuildID]
		if eng == nil {
			// A rebuilt (canonical) engine joined the fleet mid-soak.
			for _, e := range p.Engines() {
				if e.BuildID == res.BuildID {
					eng = e
				}
			}
			pristine[res.BuildID] = eng
		}
		want, err := eng.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(res.Outputs, want) {
			t.Fatalf("req %d: served outputs differ from replica build %d pristine Infer (wrong-answer escape)", i, res.BuildID)
		}
	}
	st := p.Stats()
	if st.Detections == 0 || st.Quarantines == 0 || st.Rebuilds == 0 || st.Readmissions == 0 {
		t.Fatalf("lifecycle incomplete: %+v\ntranscript:\n%s", st, strings.Join(p.Transcript(), "\n"))
	}
	h := p.Health()
	if h.Active != 3 {
		t.Fatalf("fleet did not heal: %d active\n%s", h.Active, strings.Join(p.Transcript(), "\n"))
	}
	healed := h.Replicas[1]
	if healed.BuildID != 0 {
		t.Fatalf("rebuilt replica has build id %d, want canonical 0", healed.BuildID)
	}
	if healed.State != "healthy" {
		t.Fatalf("healed replica state %s, want healthy", healed.State)
	}
	transcript := strings.Join(p.Transcript(), "\n")
	for _, edge := range []string{"healthy->suspect", "suspect->quarantined", "quarantined->rebuilding", "rebuilding->readmitted"} {
		if !strings.Contains(transcript, ") "+edge+" ") {
			t.Fatalf("missing state-machine edge %s:\n%s", edge, transcript)
		}
	}
}

// Same seed, same fleet, same requests → byte-identical transcript and
// identical stats (issue satellite: determinism test).
func TestPoolDeterministicTranscript(t *testing.T) {
	_, _, _, inputs := fixture(t)
	run := func() ([]string, serve.PoolStats) {
		p := newPool(t, func(c *serve.PoolConfig) {
			c.ReplicaInjector = havocOn(2, "determinism")
			c.Canary = inputs[:4]
		})
		for i := 0; i < 20; i++ {
			if _, err := p.DoBatchCtx(nil, inputs[i%len(inputs):i%len(inputs)+1], i); err != nil {
				t.Fatal(err)
			}
		}
		return p.Transcript(), p.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if strings.Join(t1, "\n") != strings.Join(t2, "\n") {
		t.Fatalf("same-seed transcripts differ:\n--- run 1:\n%s\n--- run 2:\n%s",
			strings.Join(t1, "\n"), strings.Join(t2, "\n"))
	}
	if s1 != s2 {
		t.Fatalf("same-seed stats differ: %+v vs %+v", s1, s2)
	}
	if len(t1) == 0 {
		t.Fatal("lifecycle produced no transcript")
	}
}

// When every replica goes bad the dispatch set drains to the FP32
// reference tier — requests keep being answered, never an error — and a
// request to the empty fleet pays exactly one reference pass.
func TestPoolDrainsToFP32WhenAllQuarantined(t *testing.T) {
	_, g, dev, inputs := fixture(t)
	p := newPool(t, func(c *serve.PoolConfig) {
		c.ReplicaInjector = func(slot int, e *core.Engine) core.FaultInjector {
			return faults.ReplicaHavoc("all-bad", "").New(fmt.Sprintf("replica%d", slot))
		}
	})
	serve1 := func(i int) *serve.PoolResult {
		t.Helper()
		x := inputs[i%len(inputs)]
		br, err := p.DoBatchCtx(nil, []*tensor.Tensor{x}, i)
		if err != nil {
			t.Fatal(err)
		}
		res := br.Results[0]
		if res.Fallback {
			want, err := core.UnoptimizedInfer(g, x)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutputs(res.Outputs, want) {
				t.Fatal("FP32 tier outputs differ from UnoptimizedInfer")
			}
		}
		return res
	}
	// The rebuilds land 4 requests after the quarantine, so the fleet
	// stays empty for the next request.
	i := 0
	for ; p.Health().Active > 0; i++ {
		if i == 16 {
			t.Fatalf("fleet never drained: %+v\n%s", p.Stats(), strings.Join(p.Transcript(), "\n"))
		}
		serve1(i)
	}
	before := p.Stats()
	res := serve1(i)
	after := p.Stats()
	if !res.Fallback || res.Voters != 0 || res.LatencySec != core.UnoptimizedRun(g, dev) {
		t.Fatalf("empty fleet served %+v, want one FP32 pass of %v", res, core.UnoptimizedRun(g, dev))
	}
	before.Requests++
	before.FP32Served++
	if after != before {
		t.Fatalf("empty fleet stats %+v, want %+v", after, before)
	}
}

// The latency watchdog catches an inflated replica: its lat-ewma signal
// reaches the transcript and the replica is quarantined.
func TestPoolLatencyWatchdog(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := newPool(t, func(c *serve.PoolConfig) {
		c.ReplicaInjector = havocOn(2, "rr-watchdog")
		c.Canary = inputs[:2]
	})
	for i := 0; i < 36; i++ {
		if _, err := p.DoBatchCtx(nil, inputs[i%len(inputs):i%len(inputs)+1], i); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Quarantines == 0 {
		t.Fatalf("watchdog never quarantined the inflated replica: %+v\n%s",
			st, strings.Join(p.Transcript(), "\n"))
	}
	found := false
	for _, line := range p.Transcript() {
		if strings.Contains(line, "lat-ewma=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no latency-watchdog signal in transcript:\n%s", strings.Join(p.Transcript(), "\n"))
	}
}

func TestPoolConfigValidation(t *testing.T) {
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	if _, err := serve.NewPool(reg, serve.PoolConfig{}); err == nil {
		t.Fatal("pool without a model accepted")
	}
	if _, err := serve.NewPool(reg, serve.PoolConfig{Model: "no-such-model"}); err == nil {
		t.Fatal("pool of unknown model accepted")
	}
	if _, err := reg.ReplicaEngines("resnet18", 0); err == nil {
		t.Fatal("zero-replica fleet accepted")
	}
}
