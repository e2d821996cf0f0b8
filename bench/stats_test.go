package main

import (
	"io"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {100, 10}, {0, 1}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // exactly 10 beyond p99.9
		{9999, 99},    // 9.999 beyond p99.9 is not enough
		{1000, 99},
		{999, 95},
		{675, 95}, // the open-loop traced window
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 75},
		{20, 50},
		{3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

func TestMedianOverWindowsWithExtremes(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != (spread{Median: 2, Min: 1, Max: 3}) {
		t.Errorf("odd count: %+v", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != (spread{Median: 2.5, Min: 1, Max: 4}) {
		t.Errorf("even count: %+v", got)
	}
	// One outlier window moves an extreme, not the median.
	if got := medianOf([]float64{10, 11, 500, 9, 10}); got.Median != 10 || got.Max != 500 {
		t.Errorf("outlier: %+v", got)
	}
	if got := medianOf(nil); got != (spread{}) {
		t.Errorf("no windows: %+v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance driver computes the spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{10, 2, 38, 23, 38, 23, 21, 4, 1, 7}, [3]float64{3.5, 15.5, 26.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestReducePoolsTheSlicesOfAWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	slices := []slice{
		{
			lo: snapshot{at: at(0), cpu: 0, mallocs: 0}, hi: snapshot{at: at(1000), cpu: ms(400), mallocs: 1000},
			samples: []sample{{ms(2), true}, {ms(4), true}, {ms(6), true}, {ms(8), true}, {ms(1), false}},
		},
		{ // the reference run and any pause between the slices belong to neither
			lo: snapshot{at: at(1500), cpu: ms(900), mallocs: 5000}, hi: snapshot{at: at(2500), cpu: ms(1500), mallocs: 5200},
			stolen: ms(40), samples: []sample{{ms(10), true}, {ms(20), true}},
		},
	}
	w := reduce(slices)
	if w.ops != 6 || w.failed != 1 {
		t.Fatalf("ops %d failed %d, want 6 and 1", w.ops, w.failed)
	}
	if w.opsPerSec != 3 || w.p50ms != 6 || w.p95ms != 20 || w.allocsPerOp != 200 {
		t.Errorf("window: %+v", w)
	}
	if got, want := w.cpuMsPerOp, 1000.0/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu ms/op = %v, want %v", got, want)
	}
	if got, want := w.stolenFrac, 0.040/2/float64(runtime.GOMAXPROCS(0)); math.Abs(got-want) > 1e-12 {
		t.Errorf("stolen fraction = %v, want %v", got, want)
	}
	if empty := reduce(nil); empty.ops != 0 || empty.opsPerSec != 0 {
		t.Errorf("no slices: %+v", empty)
	}
}

// Host times go onto the reference machine by the run's slowness;
// counts never do, and neither does the open loop's scheduled rate.
func TestEndToEndValuesScaleHostTimeOnly(t *testing.T) {
	ws := []windowStats{
		{ops: 10, opsPerSec: 100, p50ms: 4, p95ms: 8, cpuMsPerOp: 2, allocsPerOp: 50},
		{ops: 10, opsPerSec: 120, p50ms: 6, p95ms: 10, cpuMsPerOp: 3, allocsPerOp: 52},
		{ops: 10, opsPerSec: 500, p50ms: 1, p95ms: 90, cpuMsPerOp: 1, allocsPerOp: 51},
	}
	m := &meter{refs: []float64{2, 1.9, 2.1, 2, 7}} // one preempted reference run
	got := endToEndValues(io.Discard, m, ws, []float64{0.3, 0.5, 0.4}, 12, true)
	want := map[string]float64{"setup_s": 0.2, "ops_per_s": 240, "p50_ms": 2, "p95_ms": 5, "cpu_ms_per_op": 1, "allocs_per_op": 51, "live_heap_mb": 12}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if got := endToEndValues(io.Discard, m, ws, []float64{0.4}, 12, false)["ops_per_s"]; got != 120 {
		t.Errorf("open-loop ops/s = %v, want the unscaled 120", got)
	}
}

// A slice the hypervisor stole from is retaken after a pause, as long
// as the run has allowance left; then it is kept and counted as tainted.
func TestMeterRetakesStolenSlices(t *testing.T) {
	var stolen time.Duration
	steal := []time.Duration{50 * time.Millisecond, 30 * time.Millisecond, 0, 40 * time.Millisecond}
	runs := 0
	m := &meter{threads: 1, stolen: func() time.Duration { return stolen }, allowance: 2*retryPause + 100*time.Millisecond}
	work := func() []sample {
		time.Sleep(5 * time.Millisecond)
		if runs < len(steal) {
			stolen += steal[runs]
		}
		runs++
		return []sample{{time.Millisecond, true}}
	}
	sl := m.slice(work)
	if runs != 3 || m.discarded != 2 || m.tainted != 0 || sl.stolen != 0 || len(sl.samples) != 1 {
		t.Fatalf("first slice: %d runs, %d discarded, %d tainted, %v stolen", runs, m.discarded, m.tainted, sl.stolen)
	}
	// The allowance is spent: the next stolen slice is kept, and flagged.
	sl = m.slice(work)
	if runs != 4 || m.discarded != 2 || m.tainted != 1 || sl.stolen != 40*time.Millisecond {
		t.Fatalf("second slice: %d runs, %d discarded, %d tainted, %v stolen", runs, m.discarded, m.tainted, sl.stolen)
	}
	// once never retakes.
	stolen, runs = 0, 0
	steal = []time.Duration{time.Second}
	m = &meter{threads: 1, stolen: func() time.Duration { return stolen }, allowance: time.Hour}
	if sl := m.once(work); runs != 1 || !sl.tooMuchStolen() {
		t.Errorf("once: %d runs, %v stolen", runs, sl.stolen)
	}
}

func TestMeterTimesTheReferenceLoopAfterEverySlice(t *testing.T) {
	m := &meter{threads: 1, stolen: func() time.Duration { return 0 }}
	a := m.slice(func() []sample { return nil })
	b := m.slice(func() []sample { return nil })
	if len(m.refs) != 2 || m.slowness() <= 0 {
		t.Fatalf("reference runs %v", m.refs)
	}
	if !b.lo.at.After(a.hi.at) {
		t.Errorf("the reference run was counted inside a slice")
	}
}

func TestStolenCPUParsesProcStat(t *testing.T) {
	// Monotonic, and zero where the kernel does not say.
	a, b := stolenCPU(), stolenCPU()
	if a < 0 || b < a {
		t.Errorf("steal clock went from %v to %v", a, b)
	}
}

func TestSnapshotAdvances(t *testing.T) {
	a := takeSnapshot()
	x := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		x = append(x, make([]byte, 1024))
	}
	_ = x
	b := takeSnapshot()
	if b.mallocs < a.mallocs+64 || b.cpu < a.cpu || b.at.Before(a.at) {
		t.Errorf("snapshots went backwards: %+v then %+v", a, b)
	}
	if heap := liveHeapMB(); heap <= 0 || math.IsNaN(heap) {
		t.Errorf("live heap = %v", heap)
	}
}
