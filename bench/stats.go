package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailLadder are the percentiles a tail may be reported at, in tenths
// of a percent so that "ten samples beyond" is decided in integers.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it: a p99 of 300 samples is three
// requests, not a tail.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// spread is a value reported as the median over windows, with the
// extremes beside it.
type spread struct{ Median, Min, Max float64 }

func medianOf(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return spread{Median: m, Min: s[0], Max: s[len(s)-1]}
}

// quartiles returns Python's statistics.quantiles(values, n=4) — the
// default "exclusive" method — so that -compare and the acceptance
// driver compute the same spread. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// snapshot is the process state at a window boundary.
type snapshot struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// liveHeapMB forces a collection and reads what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sample is one completed operation.
type sample struct {
	lat time.Duration
	ok  bool
}

// slice is one uninterrupted stretch of load: 400 ms of serving, one
// build_zoo round, one set-up.
type slice struct {
	lo, hi  snapshot
	stolen  time.Duration // CPU time the hypervisor withheld during the slice
	samples []sample
}

// The sandbox this benchmark runs in is a micro-VM on a shared host. For
// minutes at a time the hypervisor withholds 20-35 % of the CPU time the
// guest asks for (/proc/stat's steal column), and a request path that
// sleeps and wakes across two vCPUs then runs at half its speed: ten
// back-to-back runs of serve_closed spread 15-50 % between their
// quartiles, against 7 % for the same runs restricted to slices nothing
// was stolen from. A slice that lost more than maxStolenFrac of the
// machine therefore does not describe the program. It is discarded and
// taken again after a pause, the way a window is discarded when the
// load generator fell behind its schedule — until the run has spent its
// retry allowance, after which slices are kept as they come (and the
// report says how many).
const (
	maxStolenFrac = 0.0125 // of the CPUs' combined time: one 10 ms tick in a 400 ms slice on 2 CPUs
	retryPause    = 500 * time.Millisecond
)

// meter takes slices: it enforces the steal rule and times the
// reference loop (calib.go) after every slice.
type meter struct {
	// threads is how many threads the workload keeps busy, and so how
	// many the reference loop runs on.
	threads int
	refs    []float64 // every reference run of the run, as a multiple of nominal
	// stolen reads the cumulative stolen CPU time (stolenCPU; a test
	// substitutes its own).
	stolen func() time.Duration
	// allowance is the time the run may still spend on discarded slices
	// and the pauses that follow them.
	allowance time.Duration
	discarded int
	tainted   int // slices kept although too much was stolen: the allowance was spent
}

// newMeter allows a run to spend as long again as it measures on
// retries: more, and a bad hour would not fit the driver's time limit.
func newMeter(cfg runConfig, threads int) *meter {
	return &meter{threads: threads, stolen: stolenCPU, allowance: cfg.duration(1)}
}

// reference times the reference loop once more.
func (m *meter) reference() { m.refs = append(m.refs, hostSlowness(m.threads)) }

// slowness is the run's host-speed factor: the median of its reference
// runs, which the few that were preempted cannot move.
func (m *meter) slowness() float64 {
	if len(m.refs) == 0 {
		m.reference()
	}
	return medianOf(m.refs).Median
}

func (m *meter) slice(run func() []sample) slice {
	for {
		sl := m.once(run)
		if !sl.tooMuchStolen() {
			return sl
		}
		spent := sl.hi.at.Sub(sl.lo.at) + retryPause
		if m.allowance < spent {
			m.tainted++
			return sl
		}
		m.allowance -= spent
		m.discarded++
		time.Sleep(retryPause) // idle: a busy guest is the one that gets throttled
	}
}

// once takes a slice as it comes, for work that cannot be repeated.
func (m *meter) once(run func() []sample) slice {
	before := m.stolen()
	lo := takeSnapshot()
	samples := run()
	hi := takeSnapshot()
	stolen := m.stolen() - before
	m.reference()
	return slice{lo: lo, hi: hi, stolen: stolen, samples: samples}
}

func (sl slice) tooMuchStolen() bool {
	capacity := sl.hi.at.Sub(sl.lo.at) * time.Duration(runtime.GOMAXPROCS(0))
	return float64(sl.stolen) > maxStolenFrac*float64(capacity)
}

func (m *meter) report(w io.Writer) {
	if m.discarded+m.tainted > 0 {
		fmt.Fprintf(w, "  %d slices discarded and retaken because the hypervisor stole more than %.2f%% of the CPUs; %d kept regardless once the retry allowance was spent\n",
			m.discarded, 100*maxStolenFrac, m.tainted)
	}
}

// stolenCPU reads the cumulative steal time of all CPUs from the first
// line of /proc/stat (field 8, in 10 ms ticks). Where the kernel does
// not say — another OS, no /proc — nothing is ever counted as stolen and
// the rule above never fires.
func stolenCPU() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// windowStats are one measuring window's end-to-end values, as the
// wall clock saw them.
type windowStats struct {
	ops, failed  int
	opsPerSec    float64
	p50ms, p95ms float64
	cpuMsPerOp   float64
	allocsPerOp  float64
	stolenFrac   float64 // of the CPUs' combined time over the window's slices
}

// reduce turns the slices of one window into its values.
func reduce(slices []slice) windowStats {
	var ws windowStats
	var elapsed, cpu, stolen float64
	var mallocs uint64
	var lats []float64
	for _, sl := range slices {
		elapsed += sl.hi.at.Sub(sl.lo.at).Seconds()
		stolen += sl.stolen.Seconds()
		cpu += float64(sl.hi.cpu-sl.lo.cpu) / float64(time.Millisecond)
		mallocs += sl.hi.mallocs - sl.lo.mallocs
		for _, s := range sl.samples {
			if !s.ok {
				ws.failed++
				continue
			}
			ws.ops++
			lats = append(lats, float64(s.lat)/float64(time.Millisecond))
		}
	}
	if ws.ops == 0 || elapsed == 0 {
		return ws
	}
	sort.Float64s(lats)
	ws.stolenFrac = stolen / elapsed / float64(runtime.GOMAXPROCS(0))
	ws.opsPerSec = float64(ws.ops) / elapsed
	ws.p50ms = percentile(lats, 50)
	ws.p95ms = percentile(lats, 95)
	ws.cpuMsPerOp = cpu / float64(ws.ops)
	ws.allocsPerOp = float64(mallocs) / float64(ws.ops)
	return ws
}
