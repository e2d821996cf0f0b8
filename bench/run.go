package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation: a workload, a seed, how long to measure
// and whether this is the traced (per-layer) run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every repeat count and reduces tables to the
	// artifacts that render in milliseconds; the tests use it.
	quick bool
	// root is the repository checkout (for results/alltables.txt and the
	// trace dump).
	root string
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, and the last one is measured on.
func (c runConfig) setupRepeats() int {
	if c.quick {
		return 1
	}
	return 5
}

func (c runConfig) duration(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

// outcome is what a workload hands back, whichever mode it ran in.
type outcome struct {
	attempted, failed int
	invariants        bool               // the stack's own failure counters stayed 0
	values            map[string]float64 // metric name → value
}

// tally opens an outcome with the operations of the given windows.
func tally(ws []windowStats) *outcome {
	out := &outcome{invariants: true, values: map[string]float64{}}
	for _, w := range ws {
		out.attempted += w.ops + w.failed
		out.failed += w.failed
	}
	return out
}

func runWorkload(cfg runConfig, report io.Writer) (*result, error) {
	var out *outcome
	var err error
	switch cfg.workload {
	case wlServeClosed, wlServeRaw, wlServeOpenEDF:
		if cfg.trace {
			out, err = serveTraced(cfg, report)
		} else {
			out, err = serveUntraced(cfg, report)
		}
	case wlBuildZoo:
		out, err = buildZoo(cfg, report)
	case wlTables:
		out, err = tables(cfg, report)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := directMetrics(cfg, out.values); err != nil {
			return nil, fmt.Errorf("%s: direct metrics: %w", cfg.workload, err)
		}
	}
	res := &result{
		Correct:   out.failed == 0 && out.invariants && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.Name)
		}
		// A per-layer metric the workload never enters reads 0.
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	printMetrics(report, cfg, defs, res)
	return res, nil
}

func printMetrics(w io.Writer, cfg runConfig, defs []metricDef, res *result) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d attempted, %d failed, correct=%v\n",
		cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// endToEndValues reduces measuring windows to the end-to-end metrics:
// each window yields one value per metric and the median over windows is
// taken, then put on the reference machine by the run's slowness
// (calib.go). The wall-clock median and the extremes are printed beside
// each. scale is false for the open loop: its rate is its schedule's,
// its latencies are timer waits and queueing as much as CPU speed, and
// it idles 70 % of the time, so the busy reference loop says little
// about what the host did to it.
func endToEndValues(report io.Writer, m *meter, ws []windowStats, setups []float64, heapMB float64, scale bool) map[string]float64 {
	col := func(f func(windowStats) float64) []float64 {
		out := make([]float64, len(ws))
		for i, w := range ws {
			out[i] = f(w)
		}
		return out
	}
	slow := m.slowness()
	by := slow
	if !scale {
		by = 1
	}
	cols := []struct {
		name  string
		vals  []float64
		scale float64
	}{
		{"setup_s", setups, 1 / by},
		{"ops_per_s", col(func(w windowStats) float64 { return w.opsPerSec }), by},
		{"p50_ms", col(func(w windowStats) float64 { return w.p50ms }), 1 / by},
		{"p95_ms", col(func(w windowStats) float64 { return w.p95ms }), 1 / by},
		{"cpu_ms_per_op", col(func(w windowStats) float64 { return w.cpuMsPerOp }), 1 / by},
		{"allocs_per_op", col(func(w windowStats) float64 { return w.allocsPerOp }), 1},
	}
	samples := 0
	for _, w := range ws {
		samples += w.ops
	}
	stolen := medianOf(col(func(w windowStats) float64 { return 100 * w.stolenFrac }))
	fmt.Fprintf(report, "  %d windows, %d latency samples; reference loop at %.3f of its nominal time (median of %d runs); %.2f%% [%.2f%% .. %.2f%%] of the CPUs stolen\n",
		len(ws), samples, slow, len(m.refs), stolen.Median, stolen.Min, stolen.Max)
	m.report(report)
	heading := "reference machine"
	if !scale {
		heading = "(not scaled)"
	}
	fmt.Fprintf(report, "  %-16s %17s   %s\n", "", heading, "wall clock: median over windows [min .. max]")
	vals := map[string]float64{"live_heap_mb": heapMB}
	for _, c := range cols {
		v := medianOf(c.vals)
		vals[c.name] = v.Median * c.scale
		fmt.Fprintf(report, "  %-16s %17.6g   %.6g [%.6g .. %.6g]\n", c.name, vals[c.name], v.Median, v.Min, v.Max)
	}
	return vals
}

// repeatSetup performs a set-up n times, each as a slice (so one the
// hypervisor stole from is redone), and returns how long each took. The
// last one is the one measured on.
func repeatSetup(n int, m *meter, setup func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		var err error
		sl := m.slice(func() []sample {
			err = setup()
			return nil
		})
		if err != nil {
			return nil, err
		}
		secs = append(secs, sl.hi.at.Sub(sl.lo.at).Seconds())
	}
	return secs, nil
}

// setUpServe performs the serving set-up n times — each a full build,
// listener and warm-up, the previous one torn down first — and keeps the
// last harness.
func setUpServe(n int, m *meter, seed int64, spec serveSpec, bodies [][]byte, want *answers, tr func() *tracer) (*harness, []float64, error) {
	var h *harness
	setups, err := repeatSetup(n, m, func() error {
		if h != nil {
			if err := h.close(); err != nil {
				return err
			}
		}
		var err error
		if h, err = newHarness(spec, bodies, want, tr()); err != nil {
			return err
		}
		return h.warm(seed)
	})
	return h, setups, err
}

func noTracer() *tracer { return nil }

// validWindows keeps the windows in which the open-loop generator stayed
// within maxSchedLate of its schedule, and returns how late it ran at
// worst in those. A window it fell further behind in no longer describes
// the server, so it is dropped; a run that keeps fewer than
// minValidWindows (or fewer than it has) is invalid.
func validWindows(windows []serveWindow) (kept []serveWindow, worst time.Duration, err error) {
	for _, w := range windows {
		var late time.Duration
		for _, o := range w.ops {
			late = max(late, o.send.Sub(o.due))
		}
		if late <= maxSchedLate {
			kept = append(kept, w)
			worst = max(worst, late)
		}
	}
	if len(kept) < min(minValidWindows, len(windows)) {
		return nil, 0, fmt.Errorf("run is invalid: the generator ran more than %v late in %d of %d windows", maxSchedLate, len(windows)-len(kept), len(windows))
	}
	return kept, worst, nil
}

func serveUntraced(cfg runConfig, report io.Writer) (*outcome, error) {
	spec := serveSpecs[cfg.workload]
	want, err := loadAnswers(cfg.workload)
	if err != nil {
		return nil, err
	}
	bodies := corpusBodies(spec.raw)
	m := newMeter(cfg, runtime.GOMAXPROCS(0))
	h, setups, err := setUpServe(cfg.setupRepeats(), m, cfg.seed, spec, bodies, want, noTracer)
	if err != nil {
		return nil, err
	}
	windows := h.measure(cfg.seed, cfg.duration(1), serveWindows, m)
	heap := liveHeapMB()
	runtime.KeepAlive(h)
	if err := h.close(); err != nil {
		return nil, err
	}
	kept, worst, err := validWindows(windows)
	if err != nil {
		return nil, err
	}
	if spec.open {
		fmt.Fprintf(report, "  generator at most %.3f ms late in the %d of %d windows kept\n", float64(worst)/float64(time.Millisecond), len(kept), len(windows))
	}
	var ws []windowStats
	clean := true
	for _, w := range kept {
		if !w.cnt.clean() {
			clean = false
			fmt.Fprintf(report, "  the stack refused, lost or degraded requests in a window: %+v\n", w.cnt)
		}
		if w.cnt.quarantines > 0 {
			fmt.Fprintf(report, "  the pool quarantined a replica %d time(s) in a window (diverged builds out-voted; no answer was affected)\n", w.cnt.quarantines)
		}
		ws = append(ws, reduce(w.slices))
	}
	out := tally(ws)
	out.invariants = clean
	out.values = endToEndValues(report, m, ws, setups, heap, !spec.open)
	return out, nil
}

// serveTraced is the per-layer run of a serving workload: a short
// untraced window for the baseline, then traced windows with the Backend
// decorator and the probe injectors in place.
func serveTraced(cfg runConfig, report io.Writer) (*outcome, error) {
	spec := serveSpecs[cfg.workload]
	want, err := loadAnswers(cfg.workload)
	if err != nil {
		return nil, err
	}
	bodies := corpusBodies(spec.raw)
	m := newMeter(cfg, runtime.GOMAXPROCS(0))

	// One set-up each: setup_s is the untraced run's business.
	base, _, err := setUpServe(1, m, cfg.seed, spec, bodies, want, noTracer)
	if err != nil {
		return nil, err
	}
	baseWindows := base.measure(cfg.seed, cfg.duration(0.3), 1, m)
	if err := base.close(); err != nil {
		return nil, err
	}

	var tr *tracer
	h, _, err := setUpServe(1, m, cfg.seed, spec, bodies, want, func() *tracer {
		tr = newTracer(corpusTensors(spec.raw))
		return tr
	})
	if err != nil {
		return nil, err
	}
	// The warm-up's events are not part of the window.
	tr.events, tr.members, tr.lastAct = tr.events[:0], tr.members[:0], 0
	windows := h.measure(cfg.seed, cfg.duration(0.5), serveWindows, m)
	if err := h.close(); err != nil {
		return nil, err
	}
	kept, worstLate, err := validWindows(windows)
	if err != nil {
		return nil, err
	}

	out := &outcome{values: map[string]float64{}}
	var recs []clientRec
	var lats, queue []float64
	var slices []slice
	var cnt counters
	for _, w := range kept {
		cnt = cnt.plus(w.cnt)
		slices = append(slices, w.slices...)
		for _, o := range w.ops {
			out.attempted++
			if !o.rep.ok {
				out.failed++
				continue
			}
			recs = append(recs, clientRec{
				input: o.input, due: int64(o.due.Sub(tr.t0)), send: int64(o.send.Sub(tr.t0)), recv: int64(o.recv.Sub(tr.t0)),
				queueMs: o.rep.queueMs, simLatencyMs: o.rep.simLatencyMs, ok: true,
			})
			lats = append(lats, float64(o.recv.Sub(o.due))/float64(time.Millisecond))
			queue = append(queue, o.rep.queueMs)
		}
	}
	sort.Float64s(lats)
	sort.Float64s(queue)
	out.invariants = cnt.clean()

	d := dissect(recs, tr.batches())
	fmt.Fprint(report, d.table(cfg.workload))
	m.report(report)
	tracePath := filepath.Join(cfg.root, ".bench_build", "trace-"+cfg.workload+".json")
	if err := writeSpans(tracePath, d.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(report, "  %d spans written to %s\n", len(d.spans), tracePath)

	v := out.values
	tail := tailPercentile(len(lats))
	v["client.sched_late_ms_max"] = float64(worstLate) / float64(time.Millisecond)
	v["client.tail_pct"] = tail
	v["client.tail_ms"] = percentile(lats, tail)
	v["client.max_ms"] = percentile(lats, 100)
	v["netserve.self_ms_p50"] = percentile(d.frontSelfMs, 50)
	v["netserve.queue_wait_ms_p50"] = percentile(queue, 50)
	v["netserve.queue_wait_ms_p95"] = percentile(queue, 95)
	v["netserve.batches"] = float64(cnt.batches)
	if cnt.batches > 0 {
		v["netserve.batch_size_mean"] = float64(cnt.batchedInputs) / float64(cnt.batches)
	}
	v["netserve.max_queue_depth"] = float64(cnt.maxQueueDepth)
	v["netserve.shed"] = float64(cnt.shed)
	v["netserve.expired"] = float64(cnt.expired)
	v["netserve.edf_evictions"] = float64(cnt.edfEvictions)
	v["netserve.wcet_shed"] = float64(cnt.wcetShed)
	v["netserve.client_gone"] = float64(cnt.clientGone)
	v["serve.backend_ms_p50"] = percentile(d.backendMs, 50)
	v["serve.backend_ms_p95"] = percentile(d.backendMs, 95)
	v["serve.self_us_per_batch"] = d.serveSelfUs
	v["serve.quorum_overhead_frac"] = d.quorumOverhead
	v["serve.replica_runs_per_req"] = d.replicaRunsReq
	v["serve.degraded"] = float64(cnt.degraded)
	v["serve.retries"] = float64(cnt.retries)
	v["serve.fp32_fallbacks"] = float64(cnt.fp32)
	v["serve.quarantines"] = float64(cnt.quarantines)
	v["serve.registry_setup_ms"] = h.registryMs
	v["serve.wcet_certify_ms"] = h.wcetMs
	v["core.timed_pass_us_per_batch"] = d.timedUsPerBatch
	v["core.numeric_us_per_image"] = d.numericUsPerImg
	v["core.layer_us.conv"] = d.layerUsPerImg[opConv]
	v["core.layer_us.fc"] = d.layerUsPerImg[opFC]
	v["core.layer_us.other"] = d.layerUsPerImg[opOther]
	if d.linked > 0 {
		v["gpusim.sim_ms_per_op"] = d.simMs / float64(d.linked)
	}
	if p := reduce(baseWindows[0].slices).p50ms; p > 0 {
		v["trace.overhead_frac"] = reduce(slices).p50ms/p - 1
	}
	v["trace.sum_check_frac"] = d.sumCheckFrac
	if d.sumCheckFrac > 0.01 {
		return nil, fmt.Errorf("dissection rows are %.2f%% away from the request span (limit 1%%)", 100*d.sumCheckFrac)
	}
	return out, nil
}
