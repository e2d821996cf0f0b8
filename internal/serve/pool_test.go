package serve_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/serve"
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
// Engine.Infer on the serving replica, in both dispatch modes, and the
// supervisor must record no transitions (issue acceptance criterion).
func TestPoolZeroFaultBitIdentity(t *testing.T) {
	_, _, _, inputs := fixture(t)
	for _, quorum := range []bool{false, true} {
		p := newPool(t, func(c *serve.PoolConfig) { c.Quorum = quorum })
		engines := p.Engines()
		for i := 0; i < 6; i++ {
			x := inputs[i]
			res, err := p.DoCtx(nil, x, i)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fallback || res.Replica < 0 {
				t.Fatalf("quorum=%v req %d fell back with zero faults: %+v", quorum, i, res)
			}
			want, err := engines[res.Replica].Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutputs(res.Outputs, want) {
				t.Fatalf("quorum=%v req %d outputs differ from replica %d direct Infer", quorum, i, res.Replica)
			}
			if quorum && res.Majority < 2 {
				t.Fatalf("req %d majority %d of %d voters with zero faults", i, res.Majority, res.Voters)
			}
		}
		if lines := p.Transcript(); len(lines) != 0 {
			t.Fatalf("quorum=%v transitions with zero faults: %v", quorum, lines)
		}
		h := p.Health()
		if h.Active != 3 {
			t.Fatalf("quorum=%v active %d, want 3", quorum, h.Active)
		}
		for _, r := range h.Replicas {
			if r.State != "healthy" {
				t.Fatalf("quorum=%v replica %d state %s with zero faults", quorum, r.Slot, r.State)
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
		c.Quorum = true
		c.ReplicaInjector = havocOn(faultyBuild, "lifecycle")
		c.Canary = inputs[:4]
	})
	pristine := map[int]*core.Engine{}
	for _, e := range p.Engines() {
		pristine[e.BuildID] = e
	}
	for i := 0; i < 24; i++ {
		x := inputs[i%len(inputs)]
		res, err := p.DoCtx(nil, x, i)
		if err != nil {
			t.Fatal(err)
		}
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
	if h.Transitions["healthy->suspect"] == 0 || h.Transitions["suspect->quarantined"] == 0 ||
		h.Transitions["quarantined->rebuilding"] == 0 || h.Transitions["rebuilding->readmitted"] == 0 {
		t.Fatalf("missing state-machine edges: %v", h.Transitions)
	}
}

// Same seed, same fleet, same requests → byte-identical transcript and
// identical stats (issue satellite: determinism test).
func TestPoolDeterministicTranscript(t *testing.T) {
	_, _, _, inputs := fixture(t)
	run := func() ([]string, serve.PoolStats) {
		p := newPool(t, func(c *serve.PoolConfig) {
			c.Quorum = true
			c.ReplicaInjector = havocOn(2, "determinism")
			c.Canary = inputs[:4]
		})
		for i := 0; i < 20; i++ {
			if _, err := p.DoCtx(nil, inputs[i%len(inputs)], i); err != nil {
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
// reference tier — requests keep being answered, never an error.
func TestPoolDrainsToFP32WhenAllQuarantined(t *testing.T) {
	_, g, _, inputs := fixture(t)
	p := newPool(t, func(c *serve.PoolConfig) {
		c.Quorum = true
		c.RebuildDelay = 1000 // quarantine forever within the test window
		c.ReplicaInjector = func(slot int, e *core.Engine) core.FaultInjector {
			return faults.ReplicaHavoc("all-bad", "").New(fmt.Sprintf("replica%d", slot))
		}
	})
	sawFP32 := false
	for i := 0; i < 16; i++ {
		x := inputs[i%len(inputs)]
		res, err := p.DoCtx(nil, x, i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback {
			sawFP32 = true
			want, err := core.UnoptimizedInfer(g, x)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutputs(res.Outputs, want) {
				t.Fatal("FP32 tier outputs differ from UnoptimizedInfer")
			}
		}
	}
	if !sawFP32 {
		t.Fatalf("fleet never drained to FP32: %+v\n%s", p.Stats(), strings.Join(p.Transcript(), "\n"))
	}
	if h := p.Health(); h.Active != 0 {
		t.Fatalf("active %d after total havoc, want 0\n%s", h.Active, strings.Join(p.Transcript(), "\n"))
	}
}

// Round-robin dispatch has no peers to vote with: the latency watchdog
// still catches an inflated replica.
func TestPoolRoundRobinWatchdog(t *testing.T) {
	_, _, _, inputs := fixture(t)
	p := newPool(t, func(c *serve.PoolConfig) {
		c.ReplicaInjector = havocOn(2, "rr-watchdog")
		c.Canary = inputs[:2]
	})
	for i := 0; i < 36; i++ {
		if _, err := p.DoCtx(nil, inputs[i%len(inputs)], i); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Quarantines == 0 {
		t.Fatalf("round-robin watchdog never quarantined the inflated replica: %+v\n%s",
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

// A nil image is a timed-only request on every serving path: no numeric
// pass and no outputs; the executor serves it from the tuned tier, a
// round-robin fleet from the next replica, a quorum fleet hedges across
// every replica without a vote (all voters form the majority, released
// at the second-fastest), and a fleet with no active replica prices one
// FP32 reference pass. Latencies, verdicts and counter movements are the
// values the per-request serving chains produced before they were folded
// into the batch bodies.
func TestPoolTimedOnlyRequests(t *testing.T) {
	type outcome struct {
		latencySec       float64
		served           string // executor tier, or fleet replica slot
		voters, majority int
	}
	// fleet serves one timed-only request; bump names the one counter
	// that must move besides Requests.
	fleet := func(p *serve.Pool, bump func(*serve.PoolStats)) outcome {
		want := p.Stats()
		want.Requests++
		bump(&want)
		res, err := p.DoCtx(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs != nil || res.DeadlineMiss || res.Fallback != (res.Replica < 0) {
			t.Fatalf("timed-only fleet result: %+v", res)
		}
		if got := p.Stats(); got != want {
			t.Fatalf("timed-only fleet stats %+v, want %+v", got, want)
		}
		return outcome{res.LatencySec, fmt.Sprintf("replica %d", res.Replica), res.Voters, res.Majority}
	}
	cases := []struct {
		name string
		run  func() outcome
		want outcome
	}{
		{"executor", func() outcome {
			ex := newExec(t, nil, nil)
			res, err := ex.DoCtx(nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outputs != nil || res.Degraded || res.DeadlineMiss || res.Retries != 0 {
				t.Fatalf("timed-only executor result: %+v", res)
			}
			if got, want := ex.Stats(), (serve.Stats{Requests: 1, TierServed: [3]uint64{serve.TierTuned: 1}}); got != want {
				t.Fatalf("timed-only executor stats %+v, want %+v", got, want)
			}
			return outcome{res.LatencySec, res.Tier.String(), 0, 0}
		}, outcome{6.8950788353384901e-05, "tuned", 0, 0}},
		{"round-robin", func() outcome {
			return fleet(newPool(t, nil), func(s *serve.PoolStats) { s.RoundRobin++ })
		}, outcome{6.8950788353384901e-05, "replica 0", 0, 0}},
		{"quorum", func() outcome {
			p := newPool(t, func(c *serve.PoolConfig) { c.Quorum = true })
			return fleet(p, func(s *serve.PoolStats) { s.QuorumServed++ })
		}, outcome{6.8958767864964741e-05, "replica 0", 3, 3}},
		{"no-active-replica", func() outcome {
			p := newPool(t, func(c *serve.PoolConfig) {
				c.RebuildDelay = 1000 // quarantine forever within the test window
				c.ReplicaInjector = func(slot int, e *core.Engine) core.FaultInjector {
					return faults.ReplicaHavoc("timed-only-drain", "").New(fmt.Sprintf("replica%d", slot))
				}
			})
			for i := 0; p.Health().Active > 0; i++ {
				if i == 64 {
					t.Fatalf("fleet never drained:\n%s", strings.Join(p.Transcript(), "\n"))
				}
				if _, err := p.DoCtx(nil, nil, i); err != nil {
					t.Fatal(err)
				}
			}
			return fleet(p, func(s *serve.PoolStats) { s.FP32Served++ })
		}, outcome{0.0097917235423622701, "replica -1", 0, 0}},
	}
	for _, c := range cases {
		got := c.run()
		if math.Abs(got.latencySec-c.want.latencySec) > 1e-9*c.want.latencySec {
			t.Errorf("%s: latency %.17g, want %.17g", c.name, got.latencySec, c.want.latencySec)
		}
		got.latencySec = c.want.latencySec
		if got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
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
