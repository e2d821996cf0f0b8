package experiments

import (
	"fmt"
	"sort"
	"strings"

	"edgeinfer/internal/core"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/profiler"
)

// runLatencies executes an engine Opts.Runs times and summarizes.
func (l *Lab) runLatencies(e *core.Engine, platform string, memcpy, profile bool) metrics.LatencyStats {
	dev := latencyDevice(platform)
	secs := make([]float64, l.Opts.Runs)
	for i := range secs {
		secs[i] = e.Run(core.RunConfig{Device: dev, IncludeMemcpy: memcpy, Profile: profile, RunIndex: i}).LatencySec
	}
	return metrics.Latencies(secs)
}

// Table8Row is one model's latency matrix with detected anomalies.
type Table8Row struct {
	Model  string
	Matrix metrics.LatencyMatrix
}

// Table8 reproduces Table VIII: average inference latency (with nvprof
// attached, engine memcpy included) for the four compile/run platform
// combinations, over all 13 models.
func (l *Lab) Table8() []Table8Row {
	var out []Table8Row
	for _, m := range modelList() {
		eNX := l.engine(m, "NX", 1)
		eAGX := l.engine(m, "AGX", 1)
		out = append(out, Table8Row{
			Model: m,
			Matrix: metrics.LatencyMatrix{
				CNXRNX:   l.runLatencies(eNX, "NX", true, true),
				CNXRAGX:  l.runLatencies(eNX, "AGX", true, true),
				CAGXRAGX: l.runLatencies(eAGX, "AGX", true, true),
				CAGXRNX:  l.runLatencies(eAGX, "NX", true, true),
			},
		})
	}
	return out
}

// RenderTable8 formats Table VIII.
func (l *Lab) RenderTable8() string {
	t := &table{
		title:  "Table VIII: average inference latency (ms) with nvprof, memcpy included",
		header: []string{"NN Model", "cNX_rNX", "cNX_rAGX", "cAGX_rAGX", "cAGX_rNX", "Detected Anomalies"},
	}
	for _, r := range l.Table8() {
		t.add(r.Model, r.Matrix.CNXRNX.String(), r.Matrix.CNXRAGX.String(),
			r.Matrix.CAGXRAGX.String(), r.Matrix.CAGXRNX.String(), r.Matrix.AnomalyString())
	}
	return t.String()
}

// Table9 reproduces Table IX: the same latency matrix for two
// representative models with the profiler detached — the anomalies must
// not be a profiling artifact.
func (l *Lab) Table9() []Table8Row {
	var out []Table8Row
	for _, m := range []string{"inceptionv4", "pednet"} {
		eNX := l.engine(m, "NX", 1)
		eAGX := l.engine(m, "AGX", 1)
		out = append(out, Table8Row{
			Model: m,
			Matrix: metrics.LatencyMatrix{
				CNXRNX:   l.runLatencies(eNX, "NX", true, false),
				CNXRAGX:  l.runLatencies(eNX, "AGX", true, false),
				CAGXRAGX: l.runLatencies(eAGX, "AGX", true, false),
				CAGXRNX:  l.runLatencies(eAGX, "NX", true, false),
			},
		})
	}
	return out
}

// RenderTable9 formats Table IX.
func (l *Lab) RenderTable9() string {
	t := &table{
		title:  "Table IX: average inference latency (ms) WITHOUT nvprof",
		header: []string{"NN Model", "cNX_rNX", "cNX_rAGX", "cAGX_rAGX", "cAGX_rNX", "Detected Anomalies"},
	}
	for _, r := range l.Table9() {
		t.add(r.Model, r.Matrix.CNXRNX.String(), r.Matrix.CNXRAGX.String(),
			r.Matrix.CAGXRAGX.String(), r.Matrix.CAGXRNX.String(), r.Matrix.AnomalyString())
	}
	return t.String()
}

// Table10Row is one model of Table X: the NX engine run on both
// platforms with memcpy included and excluded.
type Table10Row struct {
	Model            string
	NXIncl, NXExcl   metrics.LatencyStats
	AGXIncl, AGXExcl metrics.LatencyStats
	MemcpyAnomalous  bool // AGX memcpy share exceeds NX's
	KernelAnomalous  bool // AGX slower even without memcpy
}

// table10Models are the five models the paper dissects in Table X.
var table10Models = []string{"resnet18", "inceptionv4", "pednet", "facenet", "mobilenetv1"}

// Table10 reproduces Table X.
func (l *Lab) Table10() []Table10Row {
	var out []Table10Row
	for _, m := range table10Models {
		e := l.engine(m, "NX", 1)
		r := Table10Row{
			Model:   m,
			NXIncl:  l.runLatencies(e, "NX", true, true),
			NXExcl:  l.runLatencies(e, "NX", false, true),
			AGXIncl: l.runLatencies(e, "AGX", true, true),
			AGXExcl: l.runLatencies(e, "AGX", false, true),
		}
		r.MemcpyAnomalous = (r.AGXIncl.MeanMS - r.AGXExcl.MeanMS) > (r.NXIncl.MeanMS - r.NXExcl.MeanMS)
		r.KernelAnomalous = r.AGXExcl.MeanMS > r.NXExcl.MeanMS
		out = append(out, r)
	}
	return out
}

// RenderTable10 formats Table X.
func (l *Lab) RenderTable10() string {
	t := &table{
		title:  "Table X: NX-built engine latency (ms) with and without CUDA memcpy",
		header: []string{"NN Model", "rNX incl", "rNX excl", "rAGX incl", "rAGX excl", "memcpy slower on AGX", "kernels slower on AGX"},
	}
	for _, r := range l.Table10() {
		t.add(r.Model, r.NXIncl.String(), r.NXExcl.String(), r.AGXIncl.String(), r.AGXExcl.String(),
			fmt.Sprintf("%v", r.MemcpyAnomalous), fmt.Sprintf("%v", r.KernelAnomalous))
	}
	return t.String()
}

// Table11Row is one kernel of Table XI: per-kernel average runtime of an
// NX-built engine on both platforms.
type Table11Row struct {
	Model, Symbol string
	NXms, AGXms   float64
	SlowerOnAGX   bool
}

// Table11 reproduces Table XI: the kernels of pednet, facenet and
// mobilenetv1 that run slower on AGX than NX. The top kernels by NX time
// are reported per model.
func (l *Lab) Table11() []Table11Row {
	var out []Table11Row
	for _, m := range []string{"pednet", "facenet", "mobilenetv1"} {
		e := l.engine(m, "NX", 1)
		nx := l.profileSummary(e, "NX")
		agx := l.profileSummary(e, "AGX")
		type pair struct {
			sym     string
			nx, agx float64
		}
		var pairs []pair
		for sym, t := range nx {
			pairs = append(pairs, pair{sym, t, agx[sym]})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].nx > pairs[j].nx })
		shown := 0
		for _, p := range pairs {
			if shown >= 4 {
				break
			}
			out = append(out, Table11Row{
				Model: m, Symbol: p.sym,
				NXms: p.nx * 1e3, AGXms: p.agx * 1e3,
				SlowerOnAGX: p.agx > p.nx,
			})
			shown++
		}
	}
	return out
}

// profileSummary returns total per-symbol kernel time of one run.
func (l *Lab) profileSummary(e *core.Engine, platform string) map[string]float64 {
	dev := latencyDevice(platform)
	res := e.Run(core.RunConfig{Device: dev, Profile: true})
	out := map[string]float64{}
	for _, k := range res.Kernels {
		out[k.Symbol] += k.DurSec
	}
	return out
}

// RenderTable11 formats Table XI.
func (l *Lab) RenderTable11() string {
	t := &table{
		title:  "Table XI: per-kernel total runtime (ms) of NX-built engines on NX vs AGX",
		header: []string{"Model", "Kernel", "NX (ms)", "AGX (ms)", "slower on AGX"},
	}
	for _, r := range l.Table11() {
		t.add(r.Model, r.Symbol, fmt.Sprintf("%.3f", r.NXms), fmt.Sprintf("%.3f", r.AGXms),
			fmt.Sprintf("%v", r.SlowerOnAGX))
	}
	return t.String()
}

// Table12Row is one model's latencies across three AGX-built engines.
type Table12Row struct {
	Model   string
	Engines [3]metrics.LatencyStats
	Varies  bool
}

// Table12 reproduces Table XII: run times of three independently built
// engines of each model on AGX.
func (l *Lab) Table12() []Table12Row {
	var out []Table12Row
	for _, m := range modelList() {
		var r Table12Row
		r.Model = m
		for i := 0; i < 3; i++ {
			e := l.engine(m, "AGX", i+1)
			r.Engines[i] = l.runLatencies(e, "AGX", true, true)
		}
		spread := r.Engines[0].MeanMS
		for _, s := range r.Engines[1:] {
			if s.MeanMS < spread {
				spread = s.MeanMS
			}
		}
		maxMean := r.Engines[0].MeanMS
		for _, s := range r.Engines[1:] {
			if s.MeanMS > maxMean {
				maxMean = s.MeanMS
			}
		}
		r.Varies = (maxMean-spread)/maxMean > 0.02
		out = append(out, r)
	}
	return out
}

// RenderTable12 formats Table XII.
func (l *Lab) RenderTable12() string {
	t := &table{
		title:  "Table XII: latency (ms) of three independently built AGX engines",
		header: []string{"NN Model", "Engine1", "Engine2", "Engine3", "varies"},
	}
	for _, r := range l.Table12() {
		t.add(r.Model, r.Engines[0].String(), r.Engines[1].String(), r.Engines[2].String(),
			fmt.Sprintf("%v", r.Varies))
	}
	return t.String()
}

// Table13Result captures Table XIII: invocation counts and per-call times
// of one kernel symbol across three engines of inception-v4 on AGX.
type Table13Result struct {
	Symbol    string
	Calls     [3]int
	PerCallUS [3][]float64
}

// Table13 reproduces Table XIII. The symbol with the largest
// count variance across engines is selected (the paper picks a
// representative h884cudnn kernel).
func (l *Lab) Table13() Table13Result {
	var engines [3]*core.Engine
	var summaries [3]profiler.Summary
	for i := 0; i < 3; i++ {
		engines[i] = l.engine("inceptionv4", "AGX", i+1)
		dev := latencyDevice("AGX")
		summaries[i] = profiler.Summarize(engines[i].Run(core.RunConfig{Device: dev, Profile: true}))
	}
	counts := func(s profiler.Summary) map[string]profiler.KernelStat {
		m := map[string]profiler.KernelStat{}
		for _, st := range s.Stats {
			m[st.Symbol] = st
		}
		return m
	}
	c0, c1, c2 := counts(summaries[0]), counts(summaries[1]), counts(summaries[2])
	best, bestSpread := "", -1
	for sym, st := range c0 {
		if !strings.Contains(sym, "h884") {
			continue
		}
		a, b, c := st.Calls, c1[sym].Calls, c2[sym].Calls
		spread := max(a, b, c) - min(a, b, c)
		if spread > bestSpread {
			best, bestSpread = sym, spread
		}
	}
	res := Table13Result{Symbol: best}
	for i, cm := range []map[string]profiler.KernelStat{c0, c1, c2} {
		st := cm[best]
		res.Calls[i] = st.Calls
		for _, d := range st.PerCallSecs {
			res.PerCallUS[i] = append(res.PerCallUS[i], d*1e6)
		}
	}
	return res
}

// RenderTable13 formats Table XIII.
func (l *Lab) RenderTable13() string {
	r := l.Table13()
	var b strings.Builder
	fmt.Fprintf(&b, "Table XIII: invocations of %s across three AGX engines of inception-v4\n", r.Symbol)
	fmt.Fprintf(&b, "%10s %10s %10s\n", "Engine1", "Engine2", "Engine3")
	maxLen := 0
	for _, p := range r.PerCallUS {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	cell := func(i, j int) string {
		if j < len(r.PerCallUS[i]) {
			return fmt.Sprintf("%.2fus", r.PerCallUS[i][j])
		}
		return ""
	}
	for j := 0; j < maxLen; j++ {
		fmt.Fprintf(&b, "%10s %10s %10s\n", cell(0, j), cell(1, j), cell(2, j))
	}
	fmt.Fprintf(&b, "%8d calls %5d calls %5d calls\n", r.Calls[0], r.Calls[1], r.Calls[2])
	return b.String()
}
