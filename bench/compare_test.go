package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 {
		return []float64{c * 0.99, c, c * 1.01, c, c * 0.995, c * 1.005, c, c, c * 1.002, c * 0.998}
	}
	wide := func(c float64) []float64 {
		return []float64{c * 0.7, c * 1.3, c * 0.8, c * 1.2, c, c * 0.75, c * 1.25, c, c * 0.9, c * 1.1}
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, tight(10), tight(10), verdictOK},
		{"5% slower is inside a 10% bound", lower, tight(10), tight(10.5), verdictOK},
		{"15% slower", lower, tight(10), tight(11.5), verdictRegression},
		{"15% faster", lower, tight(10), tight(8.5), verdictOK},
		{"15% less throughput", higher, tight(1000), tight(850), verdictRegression},
		{"15% more throughput", higher, tight(1000), tight(1150), verdictOK},
		{"noisy runs cannot carry a verdict", lower, wide(10), wide(10.2), verdictUnresolved},
		{"noisy, but every run of B beats every run of A", lower, wide(10), tight(5), verdictOK},
		{"noisy and every run of B is worse", lower, tight(5), wide(10), verdictUnresolved},
		{"three runs a side carry no verdict", lower, tight(10)[:3], tight(20)[:3], verdictUnresolved},
		{"three runs a side, all of B better", lower, tight(10)[:3], tight(5)[:3], verdictOK},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if worse, _ := judge(higher, tight(1000), tight(850)); worse < 0.149 || worse > 0.151 {
		t.Errorf("15%% less throughput reads as %.3f worse", worse)
	}
}

func TestCompareFilesExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, failed int) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 10; seed++ {
			jitter := 1 + 0.002*float64(seed%3)
			res := result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				v := 100 * jitter
				if d.Name == "p50_ms" {
					v *= scale
				}
				res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			if err := appendRecord(path, runRecord{Workload: wlServeClosed, Seed: seed, Seconds: 10, Result: res}); err != nil {
				t.Fatal(err)
			}
			// A traced run in the same file must be ignored.
			if err := appendRecord(path, runRecord{Workload: wlServeClosed, Seed: seed, Trace: true, Result: result{Metrics: map[string]metricValue{"p50_ms": {Value: 1e9}}}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", 1, 0)
	var out strings.Builder
	if regressed, err := compareFiles(&out, a, write("same.json", 1, 0)); err != nil || regressed {
		t.Errorf("equal runs: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(&out, a, write("slow.json", 1.3, 0))
	if err != nil || !regressed {
		t.Errorf("30%% slower p50: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), "REGRESSION") || strings.Count(out.String(), "REGRESSION") != 1 {
		t.Errorf("want exactly the p50_ms row marked:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, write("failing.json", 1, 3)); err != nil || !regressed {
		t.Errorf("more failed operations: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("a missing file compared without error")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "bad.json")); err == nil {
		t.Errorf("a malformed file compared without error")
	}
}
