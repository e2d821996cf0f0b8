// Command fleetcheck audits a model for deployment-fleet consistency —
// the operational question the paper's findings raise: if every unit in
// a fleet builds its own engine from the same trained model, how much do
// the units disagree? It builds several engines per platform and reports
// tactic divergence, latency spread, engine-size spread and (for models
// with numeric proxies) output disagreement, then prints the paper's
// remedy: build once, serialize the plan, deploy the same binary
// everywhere.
//
// Usage:
//
//	fleetcheck -model resnet18               # 3 engines per platform
//	fleetcheck -model inceptionv4 -engines 5
//	fleetcheck -model resnet18 -sharedCache  # timing-cache convergence audit
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/models"
)

func main() {
	model := flag.String("model", "resnet18", "zoo model name")
	engines := flag.Int("engines", 3, "engines to build per platform")
	runs := flag.Int("runs", 10, "latency runs per engine")
	images := flag.Int("images", 500, "evidence images for output comparison (proxy models)")
	shared := flag.Bool("sharedCache", false, "audit the remedy instead of the hazard: units share a timing cache and must converge to byte-identical engines")
	flag.Parse()

	g, err := models.Build(*model)
	if err != nil {
		fail(err)
	}

	if *shared {
		sharedCacheAudit(g, *model, *engines)
		return
	}
	fmt.Printf("fleetcheck: %s, %d engines per platform\n\n", *model, *engines)

	type unit struct {
		name   string
		engine *core.Engine
		stats  metrics.LatencyStats
	}
	var fleet []unit
	hazards := 0

	for _, spec := range gpusim.Platforms() {
		dev := gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
		for b := 1; b <= *engines; b++ {
			e, err := core.Build(g, core.DefaultConfig(spec, b))
			if err != nil {
				fail(err)
			}
			secs := make([]float64, *runs)
			for i := range secs {
				secs[i] = e.Run(core.RunConfig{Device: dev, IncludeMemcpy: true, RunIndex: i}).LatencySec
			}
			fleet = append(fleet, unit{
				name:   fmt.Sprintf("%s#%d", spec.Short(), b),
				engine: e,
				stats:  metrics.Latencies(secs),
			})
		}
	}

	fmt.Println("unit      latency (ms)     size (MB)  kernels  distinct tactics")
	for _, u := range fleet {
		fmt.Printf("%-8s  %-15s  %9.2f  %7d  %d\n", u.name, u.stats.String(),
			float64(u.engine.SizeBytes())/1e6, len(u.engine.Launches), len(u.engine.KernelCounts()))
	}

	// Tactic divergence within each platform.
	fmt.Println()
	for p := 0; p < 2; p++ {
		base := fleet[p**engines]
		diverged := 0
		for i := 1; i < *engines; i++ {
			if !sameKernelCounts(base.engine, fleet[p**engines+i].engine) {
				diverged++
			}
		}
		fmt.Printf("%s: %d of %d rebuilt engines selected different kernels than engine #1\n",
			base.engine.Platform, diverged, *engines-1)
		if diverged > 0 {
			hazards++
		}
	}

	// Latency spread across the whole fleet.
	lo, hi := fleet[0].stats.MeanMS, fleet[0].stats.MeanMS
	for _, u := range fleet[1:] {
		if u.stats.MeanMS < lo {
			lo = u.stats.MeanMS
		}
		if u.stats.MeanMS > hi {
			hi = u.stats.MeanMS
		}
	}
	spreadPct := 100 * (hi - lo) / hi
	fmt.Printf("fleet latency spread: %.2f-%.2f ms (%.1f%%)\n", lo, hi, spreadPct)
	if spreadPct > 5 {
		hazards++
	}

	// Output disagreement (numeric proxies only).
	if models.HasProxy(*model) {
		disagree, total := outputDisagreement(*model, *engines, *images)
		fmt.Printf("output disagreement across fleet pairs: %d of %d prediction pairs\n", disagree, total)
		if disagree > 0 {
			hazards++
		}
	} else {
		fmt.Printf("(no numeric proxy for %s; output comparison skipped)\n", *model)
	}

	fmt.Println()
	if hazards > 0 {
		fmt.Printf("VERDICT: %d consistency hazard(s) found.\n", hazards)
		fmt.Println("Remedy (paper §VI-A): build the engine ONCE, serialize the plan")
		fmt.Println("(rtexec -save), and deploy that exact binary to every unit. Never")
		fmt.Println("rebuild per unit: rebuilds change outputs, latencies and WCET.")
		os.Exit(1)
	}
	fmt.Println("VERDICT: fleet consistent at this sample size (hazards remain possible; see paper Tables V-VI).")
}

// sharedCacheAudit builds N units per platform against one shared timing
// cache: unit #1 is the cold build that pays the tactic-timing cost and
// populates the cache; units #2..N must come out warm, tactic-equal to
// unit #1 and byte-identical to each other (canonical warm build id).
// Any divergence is a hazard and exits non-zero — this is the CI gate
// for the "build once" mechanism.
func sharedCacheAudit(g *graph.Graph, model string, engines int) {
	fmt.Printf("fleetcheck: %s, shared-cache convergence audit, %d units per platform\n\n", model, engines)
	hazards := 0
	for _, spec := range gpusim.Platforms() {
		cache := core.NewTimingCache()
		var coldCost float64
		var cold *core.Engine
		var warmBytes []byte
		warmIdentical, tacticEqual := true, true
		for b := 1; b <= engines; b++ {
			cfg := core.DefaultConfig(spec, b)
			cfg.TunerNoise = 0.08 + 0.01*float64(b) // per-unit noise settings must not matter
			cfg.TimingCache = cache
			cfg.CanonicalWarmID = true
			e, err := core.Build(g, cfg)
			if err != nil {
				fail(err)
			}
			if b == 1 {
				cold = e
				coldCost = e.Report.TuneCostSec
				continue
			}
			if !e.Report.WarmBuild || e.Report.CacheMisses != 0 {
				fmt.Printf("%s unit #%d: NOT warm (%d misses)\n", spec.Short(), b, e.Report.CacheMisses)
				hazards++
				continue
			}
			if !sameKernelCounts(cold, e) {
				tacticEqual = false
			}
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				fail(err)
			}
			if warmBytes == nil {
				warmBytes = buf.Bytes()
			} else if !bytes.Equal(warmBytes, buf.Bytes()) {
				warmIdentical = false
			}
		}
		fmt.Printf("%s: cold unit paid %.1f ms tactic timing (%d entries cached); %d warm units: tactic-equal=%v byte-identical=%v\n",
			spec.Short(), coldCost*1e3, cache.Len(), engines-1, tacticEqual, warmIdentical)
		if !tacticEqual || !warmIdentical {
			hazards++
		}
	}
	fmt.Println()
	if hazards > 0 {
		fmt.Printf("VERDICT: %d shared-cache convergence hazard(s) found.\n", hazards)
		os.Exit(1)
	}
	fmt.Println("VERDICT: shared-cache fleet converged (warm units byte-identical per platform).")
}

// sameKernelCounts compares the kernel-count maps of two engines.
func sameKernelCounts(a, b *core.Engine) bool {
	ca, cb := a.KernelCounts(), b.KernelCounts()
	if len(ca) != len(cb) {
		return false
	}
	for k, v := range ca {
		if cb[k] != v {
			return false
		}
	}
	return true
}

// outputDisagreement runs the fleet's proxy engines over evidence images
// and counts pairwise prediction differences. Units that are the same
// numeric program (core.Engine.SameNumerics) can never disagree: one of
// each group is classified, and the grouping is printed so the operator
// sees which units those are.
func outputDisagreement(model string, engines, images int) (int, int) {
	proxy, err := models.BuildProxy(model, models.DefaultProxyOptions())
	if err != nil {
		fail(err)
	}
	cfg := dataset.DefaultBenign((images + dataset.NumClasses - 1) / dataset.NumClasses)
	set := dataset.Benign(cfg)
	if len(set) > images {
		set = set[:images]
	}
	type program struct {
		rep   *core.Engine
		units []string
	}
	var programs []*program
	var unitProgram []int // per unit, in fleet order
	for _, spec := range gpusim.Platforms() {
		for b := 1; b <= engines; b++ {
			e, err := core.Build(proxy, core.DefaultConfig(spec, b))
			if err != nil {
				fail(err)
			}
			pi := 0
			for pi < len(programs) && !programs[pi].rep.SameNumerics(e) {
				pi++
			}
			if pi == len(programs) {
				programs = append(programs, &program{rep: e})
			}
			programs[pi].units = append(programs[pi].units, fmt.Sprintf("%s#%d", spec.Short(), b))
			unitProgram = append(unitProgram, pi)
		}
	}
	fmt.Printf("numeric programs: %d distinct among %d units —", len(programs), len(unitProgram))
	preds := make([][]int, len(programs))
	for pi, pr := range programs {
		fmt.Printf(" {%s}", strings.Join(pr.units, " "))
		preds[pi] = make([]int, len(set))
		for i, s := range set {
			o, err := pr.rep.Infer(s.Image)
			if err != nil {
				fail(err)
			}
			preds[pi][i] = o[0].Argmax()
		}
	}
	fmt.Println()
	disagree, total := 0, 0
	for i := range unitProgram {
		for j := i + 1; j < len(unitProgram); j++ {
			disagree += metrics.Mismatches(preds[unitProgram[i]], preds[unitProgram[j]])
			total += len(set)
		}
	}
	return disagree, total
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleetcheck:", err)
	os.Exit(1)
}
