package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The quick run drives the whole harness — set-up, generator, checker,
// windows, trace, direct loops — on every workload in both modes, with
// windows of a fraction of a second and tables reduced to the artifacts
// that render in milliseconds, and validates what each run would print.
func TestQuickRunEmitsValidResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../results/alltables.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "results", "alltables.txt"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 11, seconds: 1.5, trace: traced, quick: true, root: root}
			var report strings.Builder
			res, err := runWorkload(cfg, &report)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, report.String())
			}
			overloaded := raceEnabled && w.Name == wlServeOpenEDF // see race_on_test.go
			if (!res.Correct || res.Failed != 0 || res.Attempted < 1) && !overloaded {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, res.Correct, res.Attempted, res.Failed, report.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s is %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			// The last line a run prints has exactly the contract's keys.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s trace=%v: result has keys %v", w.Name, traced, keys)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := keys[k]; !ok {
					t.Errorf("%s trace=%v: result lacks %q", w.Name, traced, k)
				}
			}
			if traced {
				checkTraced(t, w.Name, res, report.String(), root)
			}
		}
	}
}

func checkTraced(t *testing.T, workload string, res *result, report, root string) {
	t.Helper()
	v := func(name string) float64 { return res.Metrics[name].Value }
	for _, name := range []string{"netserve.handler_us.index", "netserve.handler_us.raw", "core.infer_us", "kernels.conv_us", "kernels.fc_us", "gpusim.run_us", "latpred.predict_ns"} {
		if v(name) <= 0 {
			t.Errorf("%s: direct metric %s = %v", workload, name, v(name))
		}
	}
	if v("netserve.handler_us.raw") <= v("netserve.handler_us.index") {
		t.Errorf("%s: a 21 KB body decoded as fast as an index body", workload)
	}
	switch workload {
	case wlServeClosed, wlServeRaw, wlServeOpenEDF:
		if v("trace.sum_check_frac") > 0.01 {
			t.Errorf("%s: dissection rows are %v away from the request span", workload, v("trace.sum_check_frac"))
		}
		want := 1.0
		if workload == wlServeOpenEDF {
			want = 3
		}
		if v("serve.replica_runs_per_req") != want {
			t.Errorf("%s: each image ran on %v engines, want %v", workload, v("serve.replica_runs_per_req"), want)
		}
		for _, name := range []string{"serve.backend_ms_p50", "core.numeric_us_per_image", "core.layer_us.conv", "core.layer_us.fc", "netserve.batches", "gpusim.sim_ms_per_op"} {
			if v(name) <= 0 {
				t.Errorf("%s: %s = %v", workload, name, v(name))
			}
		}
		if sum := v("core.layer_us.conv") + v("core.layer_us.fc") + v("core.layer_us.other"); sum < 0.999*v("core.numeric_us_per_image") || sum > 1.001*v("core.numeric_us_per_image") {
			t.Errorf("%s: layer kinds sum to %v µs, the numeric pass is %v µs", workload, sum, v("core.numeric_us_per_image"))
		}
		if !strings.Contains(report, "dissection of "+workload) || !strings.Contains(report, "sim ms/req") {
			t.Errorf("%s: no dissection table in the report:\n%s", workload, report)
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(root, ".bench_build", "trace-"+workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span dump holds %d spans, err %v", workload, len(spans), err)
		}
	case wlBuildZoo:
		for _, name := range []string{"core.build_cold_ms_p50", "core.build_warm_ms_p50", "core.plan_load_ms_p50", "core.tactics_timed", "core.cache_hits", "latpred.train_ms", "planlint.verify_ms_p50", "gpusim.sim_ms_per_op"} {
			if v(name) <= 0 {
				t.Errorf("%s: %s = %v", workload, name, v(name))
			}
		}
	case wlTables:
		if v("experiments.artifact_s.table1") <= 0 || v("experiments.artifact_s.table18") <= 0 {
			t.Errorf("tables: artifacts were not timed")
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := runWorkload(runConfig{workload: "nope", seconds: 1, root: ".."}, io.Discard); err == nil {
		t.Errorf("an unknown workload ran")
	}
}
