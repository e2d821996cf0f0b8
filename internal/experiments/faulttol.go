package experiments

import (
	"fmt"
	"sort"

	"edgeinfer/internal/core"
	"edgeinfer/internal/faults"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// Fault-tolerance study (extension): the paper characterizes engines on
// pristine, pinned devices; this experiment measures what a deployed
// serving stack delivers when the device degrades. A seeded fault plan
// (faults.Scenario) is swept over its base rate, and a two-replica
// serve.Pool per sweep point answers classification requests: replica 0
// while the two builds agree, replica 1 when replica 0 failed (the
// failover), and the FP32 reference when neither answered or the two
// disagree. It reports top-1 error of the answers actually served,
// latency percentiles, who answered and the fault/failover ledger.

// faultTolPlatforms are the study's platforms.
var faultTolPlatforms = []string{"NX", "AGX"}

// FaultTolRow is one (platform, fault-rate) sweep point.
type FaultTolRow struct {
	Platform string
	Rate     float64

	// TRTErr is the top-1 error (%) of the answers the pool served;
	// UnoptErr is the un-optimized model's error on the same requests
	// (the floor the FP32 tier degrades to).
	TRTErr, UnoptErr float64

	// Latency percentiles of served requests (proxy-scale, ms) and the
	// un-optimized reference latency on the same device.
	P50Ms, P99Ms, UnoptMs float64

	// Shares (%) of who answered: replica 0, replica 1, the FP32 tier.
	Replica0Pct, Replica1Pct, FP32Pct float64

	// Ledger: faults injected, replica attempts that failed over to the
	// other replica or the FP32 tier (PoolStats.ReplicaFails), and
	// replicas quarantined.
	Faults, Failovers, Quarantines uint64
}

// FaultTolerance sweeps the scenario base rate for one model, serving
// `requests` benign samples per (platform, rate) point through a
// two-replica pool built fresh from its own registry, so every point
// serves the same two builds and the rate is the only variable. Both
// replicas run under the point's one injector: the faults are the
// device's. Everything is seeded: same arguments, same table.
func (l *Lab) FaultTolerance(model string, rates []float64, requests int) ([]FaultTolRow, error) {
	set := l.benignSet()
	if requests > len(set) {
		requests = len(set)
	}
	images := make([]*tensor.Tensor, requests)
	labels := make([]int, requests)
	for i := 0; i < requests; i++ {
		images[i], labels[i] = set[i].Image, set[i].Label
	}
	var out []FaultTolRow
	for _, platform := range faultTolPlatforms {
		dev := latencyDevice(platform)
		ref, err := l.referenceE(model)
		if err != nil {
			return nil, err
		}
		unoptPred, err := l.classifyE(ref, images)
		if err != nil {
			return nil, err
		}
		g, err := l.proxyGraph(model)
		if err != nil {
			return nil, err
		}
		unoptMs := core.UnoptimizedRun(g, dev) * 1e3
		for _, rate := range rates {
			// The seed strings key the fault streams results/faulttol.txt
			// records: renaming them changes the golden.
			inj := faults.Scenario(fmt.Sprintf("faultbench/%s/%.3f", model, rate), rate).New(platform)
			pool, err := serve.NewPool(serve.NewRegistry(platformSpec(platform), nil), serve.PoolConfig{
				Model:           model,
				Replicas:        2,
				ReplicaInjector: func(int, *core.Engine) core.FaultInjector { return inj },
			})
			if err != nil {
				return nil, err
			}
			preds := make([]int, requests)
			lats := make([]float64, requests)
			var served [3]int // replica 0, replica 1, FP32
			for i := range images {
				br, err := pool.DoBatchCtx(nil, images[i:i+1], i)
				if err != nil {
					return nil, fmt.Errorf("experiments: fault sweep %s rate %.3f request %d: %w", platform, rate, i, err)
				}
				res := br.Results[0]
				preds[i] = res.Outputs[0].Argmax()
				lats[i] = res.LatencySec
				if res.Fallback {
					served[2]++
				} else {
					served[res.Replica]++
				}
			}
			st := pool.Stats()
			share := func(n int) float64 { return 100 * float64(n) / float64(requests) }
			out = append(out, FaultTolRow{
				Platform: platform, Rate: rate,
				TRTErr:      metrics.Top1Error(preds, labels),
				UnoptErr:    metrics.Top1Error(unoptPred, labels),
				P50Ms:       percentile(lats, 0.50) * 1e3,
				P99Ms:       percentile(lats, 0.99) * 1e3,
				UnoptMs:     unoptMs,
				Replica0Pct: share(served[0]),
				Replica1Pct: share(served[1]),
				FP32Pct:     share(served[2]),
				Faults:      inj.Counters().Total(),
				Failovers:   st.ReplicaFails,
				Quarantines: st.Quarantines,
			})
		}
	}
	return out, nil
}

// RenderFaultToleranceFor formats the committed fault-rate sweep: resnet18,
// 100 requests per point, rates 0 to 1.
func (l *Lab) RenderFaultToleranceFor() (string, error) {
	t := &table{
		title: "Fault tolerance: resnet18 served by a two-replica pool (100 requests/point, proxy-scale latency)",
		header: []string{"Platform", "FaultRate", "Err(%) served", "Err(%) unopt",
			"p50(ms)", "p99(ms)", "unopt(ms)", "replica0%", "replica1%", "fp32%", "faults", "failovers", "quarantines"},
	}
	rows, err := l.FaultTolerance("resnet18", []float64{0, 0.01, 0.05, 0.2, 0.5, 1}, 100)
	if err != nil {
		return "", err
	}
	for _, r := range rows {
		t.add(r.Platform, f2(r.Rate), f2(r.TRTErr), f2(r.UnoptErr),
			f2(r.P50Ms), f2(r.P99Ms), f2(r.UnoptMs),
			f1(r.Replica0Pct), f1(r.Replica1Pct), f1(r.FP32Pct),
			fmt.Sprintf("%d", r.Faults), fmt.Sprintf("%d", r.Failovers), fmt.Sprintf("%d", r.Quarantines))
	}
	return t.String(), nil
}

// ThrottleRow is one (platform, severity) point of the DVFS-throttling
// sweep: full-scale engine latency under random clock drops to DropFrac
// of nominal with the governor's recovery ramp.
type ThrottleRow struct {
	Platform string
	DropFrac float64

	P50Ms, P99Ms float64
	// NominalMs is the fault-free p50 on the same device.
	NominalMs float64
	// Drops is the number of DVFS events injected over the sweep.
	Drops uint64
}

// ThrottleSweep measures timed (full-scale) engine latency under
// increasingly severe clock-drop faults: drop probability is fixed at
// 10% per kernel launch, severity is the clock fraction dropped to.
func (l *Lab) ThrottleSweep(model string, fracs []float64, requests int) ([]ThrottleRow, error) {
	var out []ThrottleRow
	for _, platform := range faultTolPlatforms {
		dev := latencyDevice(platform)
		eng := l.engine(model, platform, 1)
		nominal := make([]float64, requests)
		for i := range nominal {
			nominal[i] = eng.Run(core.RunConfig{Device: dev, RunIndex: i}).LatencySec
		}
		for _, frac := range fracs {
			plan := faults.Plan{
				Seed:             fmt.Sprintf("throttle/%s/%.2f", model, frac),
				ClockDropRate:    0.1,
				ClockDropFrac:    frac,
				ClockRecoverStep: 1.03,
			}
			inj := plan.New(platform)
			lats := make([]float64, requests)
			for i := range lats {
				// Clock-only plans should never fail a run; report it
				// rather than crash if a future fault kind changes that.
				res, err := eng.RunFaulty(core.RunConfig{Device: dev, RunIndex: i}, inj)
				if err != nil {
					return nil, fmt.Errorf("experiments: throttle sweep %s frac %.2f run %d: %w", platform, frac, i, err)
				}
				lats[i] = res.LatencySec
			}
			out = append(out, ThrottleRow{
				Platform: platform, DropFrac: frac,
				P50Ms:     percentile(lats, 0.50) * 1e3,
				P99Ms:     percentile(lats, 0.99) * 1e3,
				NominalMs: percentile(nominal, 0.50) * 1e3,
				Drops:     inj.Counters().Get(faults.KindClockDrop),
			})
		}
	}
	return out, nil
}

// RenderThrottleSweep formats the default DVFS-severity sweep for
// resnet18 (full-scale timing).
func (l *Lab) RenderThrottleSweep() (string, error) {
	t := &table{
		title:  "DVFS throttling: resnet18 latency under clock-drop faults (10% of launches drop to DropFrac, governor ramps back at 3%/launch)",
		header: []string{"Platform", "DropFrac", "p50(ms)", "p99(ms)", "nominal p50(ms)", "drops"},
	}
	rows, err := l.ThrottleSweep("resnet18", []float64{0.9, 0.75, 0.5, 0.25}, 200)
	if err != nil {
		return "", err
	}
	for _, r := range rows {
		t.add(r.Platform, f2(r.DropFrac), f2(r.P50Ms), f2(r.P99Ms), f2(r.NominalMs), fmt.Sprintf("%d", r.Drops))
	}
	return t.String(), nil
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}
