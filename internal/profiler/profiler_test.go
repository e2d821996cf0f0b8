package profiler

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/models"
)

func engineAndDevice(t *testing.T) (*core.Engine, *gpusim.Device) {
	t.Helper()
	g := models.MustBuild("resnet18")
	e, err := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), 1))
	if err != nil {
		t.Fatal(err)
	}
	return e, gpusim.NewDevice(gpusim.XavierNX(), 599)
}

func TestSummarizeAggregates(t *testing.T) {
	e, dev := engineAndDevice(t)
	var results []core.RunResult
	for i := 0; i < 3; i++ {
		results = append(results, e.Run(core.RunConfig{Device: dev, IncludeMemcpy: true, Profile: true, RunIndex: i}))
	}
	s := Summarize(results...)
	if s.Runs != 3 {
		t.Fatalf("runs %d", s.Runs)
	}
	totalCalls := 0
	for _, st := range s.Stats {
		totalCalls += st.Calls
		if st.MinSec > st.MaxSec || st.AvgSec() <= 0 {
			t.Fatalf("bad stat %+v", st)
		}
		if len(st.PerCallSecs) != st.Calls {
			t.Fatal("per-call record mismatch")
		}
	}
	if totalCalls != 3*len(e.Launches) {
		t.Fatalf("calls %d want %d", totalCalls, 3*len(e.Launches))
	}
	// Sorted by total time descending.
	for i := 1; i < len(s.Stats); i++ {
		if s.Stats[i].TotalSec > s.Stats[i-1].TotalSec {
			t.Fatal("summary not sorted by total time")
		}
	}
}

func TestSummaryRender(t *testing.T) {
	e, dev := engineAndDevice(t)
	r := e.Run(core.RunConfig{Device: dev, IncludeMemcpy: true, Profile: true})
	out := Summarize(r).Render()
	for _, want := range []string{"==PROF==", "Calls", "CUDA memcpy HtoD", "trt_volta"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q", want)
		}
	}
	// Time(%) is one share of all GPU activity, memcpy row included: the
	// column sums to 100, give or take each row's rounding.
	sum, rows := 0.0, 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[2:] {
		pct, _ := strings.CutSuffix(strings.Fields(line)[0], "%")
		v, err := strconv.ParseFloat(pct, 64)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		sum += v
		rows++
	}
	if rows != len(Summarize(r).Stats)+1 || math.Abs(sum-100) > 0.01*float64(rows) {
		t.Errorf("Time(%%) column over %d rows sums to %.2f, want 100:\n%s", rows, sum, out)
	}
}

func TestTraceOrdering(t *testing.T) {
	e, dev := engineAndDevice(t)
	r := e.Run(core.RunConfig{Device: dev, IncludeMemcpy: true, Profile: true})
	out := Trace(r)
	if !strings.Contains(out, "GPU trace") {
		t.Fatal("trace header missing")
	}
	if strings.Count(out, "\n") < len(e.Launches) {
		t.Fatal("trace too short")
	}
}

func TestTegrastats(t *testing.T) {
	e, dev := engineAndDevice(t)
	load := e.StreamLoad(dev)
	s1 := Tegrastats(dev, load, 1)
	s8 := Tegrastats(dev, load, 8)
	if s8.GPUUtilPct <= s1.GPUUtilPct {
		t.Fatal("utilization should rise with threads")
	}
	if s8.RAMUsedMB <= s1.RAMUsedMB {
		t.Fatal("RAM should rise with threads")
	}
	if s8.RAMUsedMB > s8.RAMTotalMB {
		t.Fatal("RAM used exceeds total")
	}
	if !strings.Contains(s1.Render(), "GR3D_FREQ") {
		t.Fatalf("tegrastats format: %q", s1.Render())
	}
}

func TestChromeTrace(t *testing.T) {
	e, dev := engineAndDevice(t)
	r := e.Run(core.RunConfig{Device: dev, IncludeMemcpy: true, Profile: true})
	doc, err := ChromeTrace(e.Key(), r)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != len(e.Launches)+1 {
		t.Fatalf("%d events, want %d", len(parsed.TraceEvents), len(e.Launches)+1)
	}
	if parsed.TraceEvents[0].Name != "[CUDA memcpy HtoD]" {
		t.Fatal("memcpy event missing")
	}
	// Events must be ordered and non-overlapping on the timeline.
	end := 0.0
	for _, ev := range parsed.TraceEvents[1:] {
		if ev.TS+1e-9 < end {
			t.Fatal("kernel events overlap")
		}
		end = ev.TS + ev.Dur
		if ev.Dur <= 0 {
			t.Fatalf("event %s has non-positive duration", ev.Name)
		}
	}
}
