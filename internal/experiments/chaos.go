package experiments

import (
	"fmt"
	"strings"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// Chaos/soak study (extension): the self-healing replica fleet under
// seeded replica-scoped faults. Each scenario degrades one replica of a
// three-replica quorum fleet — sustained latency inflation, a stuck
// kernel, silent output corruption, or all at once — and the soak
// counts what the supervisor saw: detections, quarantines, background
// rebuilds (warm, through the shared timing cache), canary-validated
// readmissions, and — the number that must be zero — wrong-answer
// escapes, requests whose served answer differs from the serving
// replica's own pristine output. Everything is seeded and request-
// ordered, so the table and the transition transcript are byte-
// identical across runs.

// chaosFaultyBuild is the build id the faulty replica carries: a fresh
// registry hands a three-replica fleet the ids 1, 2, 3, so build 2 is
// slot 1. Rebuilt replicas are canonical (build 0) and therefore heal.
const chaosFaultyBuild = 2

// chaosScenario names one replica-fault shape of the soak.
type chaosScenario struct {
	name string
	// plan derives the fault plan for the targeted engine (the stuck-
	// kernel scenario reads the victim's own first kernel symbol).
	plan func(seed string, e *core.Engine) faults.Plan
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{"none", nil},
		{"latency-inflate", func(seed string, e *core.Engine) faults.Plan {
			return faults.Plan{Seed: seed, InflateFactor: 10}
		}},
		{"stuck-kernel", func(seed string, e *core.Engine) faults.Plan {
			sym := ""
			if len(e.Launches) > 0 {
				sym = e.Launches[0].Symbol
			}
			return faults.Plan{Seed: seed, StuckSymbol: sym, StuckStallSec: 2e-3}
		}},
		{"silent-corrupt", func(seed string, e *core.Engine) faults.Plan {
			return faults.Plan{Seed: seed, SilentCorruptRate: 0.08}
		}},
		{"havoc", func(seed string, e *core.Engine) faults.Plan {
			sym := ""
			if len(e.Launches) > 0 {
				sym = e.Launches[0].Symbol
			}
			return faults.ReplicaHavoc(seed, sym)
		}},
	}
}

// ChaosRow is one scenario of the chaos soak.
type ChaosRow struct {
	Scenario string
	Requests int

	// Who answered: quorum majorities vs the FP32 reference tier (no
	// strict majority, or an empty dispatch set).
	QuorumPct, FP32Pct float64

	// supervisor ledger.
	Detections, Quarantines, Rebuilds, Readmissions, CanaryFailures uint64

	// Escapes counts wrong answers that reached a caller: a served
	// (non-fallback) argmax differing from the serving replica's own
	// pristine Infer. The fleet's whole job is keeping this at zero.
	Escapes int

	// FaultsInjected totals the injector ledgers of every injector the
	// scenario created (initial fleet plus post-rebuild consultations).
	FaultsInjected uint64

	// ActiveEnd is the dispatch-set size when the soak ended; fewer than
	// the fleet size means a leaked quarantine (the fleet never healed).
	ActiveEnd int

	// Transcript is the supervisor's transition log for the soak.
	Transcript []string
}

// ChaosSoak runs every scenario for one model on NX: `requests` benign
// classification requests through a fresh three-replica quorum fleet
// whose slot-1 replica carries the scenario's fault plan.
func (l *Lab) ChaosSoak(model string, requests int) ([]ChaosRow, error) {
	set := l.benignSet()
	if requests > len(set) {
		requests = len(set)
	}
	images := make([]*tensor.Tensor, requests)
	for i := 0; i < requests; i++ {
		images[i] = set[i].Image
	}
	var out []ChaosRow
	for _, sc := range chaosScenarios() {
		row, err := l.chaosScenario(model, sc, images)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func (l *Lab) chaosScenario(model string, sc chaosScenario, images []*tensor.Tensor) (ChaosRow, error) {
	reg := serve.NewRegistry(platformSpec("NX"), nil)
	var injectors []*faults.Injector
	cfg := serve.PoolConfig{
		Model:  model,
		Canary: images[:min(4, len(images))],
	}
	if sc.plan != nil {
		seed := fmt.Sprintf("chaos/%s/%s", model, sc.name)
		cfg.ReplicaInjector = func(slot int, e *core.Engine) core.FaultInjector {
			if e.BuildID != chaosFaultyBuild {
				return nil
			}
			in := sc.plan(seed, e).New(fmt.Sprintf("replica%d", slot))
			injectors = append(injectors, in)
			return in
		}
	}
	pool, err := serve.NewPool(reg, cfg)
	if err != nil {
		return ChaosRow{}, err
	}
	// Pristine per-engine predictions for escape checks, lazily filled.
	pristine := map[*core.Engine][]int{}
	pristineArg := func(e *core.Engine, idx int) (int, error) {
		preds, ok := pristine[e]
		if !ok {
			preds = make([]int, len(images))
			for i := range preds {
				preds[i] = -2
			}
			pristine[e] = preds
		}
		if preds[idx] == -2 {
			outs, err := e.Infer(images[idx])
			if err != nil {
				return 0, err
			}
			preds[idx] = outs[0].Argmax()
		}
		return preds[idx], nil
	}
	row := ChaosRow{Scenario: sc.name, Requests: len(images)}
	for i := range images {
		br, err := pool.DoBatchCtx(nil, images[i:i+1], i)
		if err != nil {
			return ChaosRow{}, fmt.Errorf("experiments: chaos %s request %d: %w", sc.name, i, err)
		}
		res := br.Results[0]
		if res.Fallback {
			continue // the FP32 reference is the ground answer by definition
		}
		var eng *core.Engine
		for _, e := range pool.Engines() {
			if e.BuildID == res.BuildID {
				eng = e
				break
			}
		}
		if eng == nil {
			return ChaosRow{}, fmt.Errorf("experiments: chaos %s request %d served by unknown build %d", sc.name, i, res.BuildID)
		}
		want, err := pristineArg(eng, i)
		if err != nil {
			return ChaosRow{}, err
		}
		if len(res.Outputs) == 0 || res.Outputs[0].Argmax() != want {
			row.Escapes++
		}
	}
	st := pool.Stats()
	h := pool.Health()
	row.QuorumPct = 100 * float64(st.QuorumServed) / float64(row.Requests)
	row.FP32Pct = 100 * float64(st.FP32Served) / float64(row.Requests)
	row.Detections = st.Detections
	row.Quarantines = st.Quarantines
	row.Rebuilds = st.Rebuilds
	row.Readmissions = st.Readmissions
	row.CanaryFailures = st.CanaryFailures
	row.ActiveEnd = h.Active
	row.Transcript = pool.Transcript()
	for _, in := range injectors {
		row.FaultsInjected += in.Counters().Total()
	}
	return row, nil
}

// RenderChaosSoakFor runs a parameterized soak once and formats it: the
// scenario table followed by each non-empty supervisor transcript.
func (l *Lab) RenderChaosSoakFor(model string, requests int) (string, error) {
	rows, err := l.ChaosSoak(model, requests)
	if err != nil {
		return "", err
	}
	t := &table{
		title: fmt.Sprintf("Chaos soak: %s on NX, 3-replica quorum fleet, slot-1 replica faulted (%d requests/scenario)", model, requests),
		header: []string{"Scenario", "req", "quorum%", "fp32%", "detect", "quarantine",
			"rebuild", "readmit", "canary-fail", "escapes", "active", "faults"},
	}
	for _, r := range rows {
		t.add(r.Scenario, fmt.Sprintf("%d", r.Requests), f1(r.QuorumPct), f1(r.FP32Pct),
			fmt.Sprintf("%d", r.Detections), fmt.Sprintf("%d", r.Quarantines),
			fmt.Sprintf("%d", r.Rebuilds), fmt.Sprintf("%d", r.Readmissions),
			fmt.Sprintf("%d", r.CanaryFailures), fmt.Sprintf("%d", r.Escapes),
			fmt.Sprintf("%d", r.ActiveEnd), fmt.Sprintf("%d", r.FaultsInjected))
	}
	var b strings.Builder
	b.WriteString(t.String())
	for _, r := range rows {
		if len(r.Transcript) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nsupervisor transcript (%s):\n", r.Scenario)
		for _, line := range r.Transcript {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String(), nil
}
