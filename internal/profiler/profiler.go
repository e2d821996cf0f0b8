// Package profiler provides the measurement tooling of the paper's
// methodology: an nvprof-like kernel profiler (summary and GPU-trace
// modes over engine runs) and a tegrastats-like utilization sampler.
// Attaching the profiler is not free — the engine runtime charges
// per-launch instrumentation cost when RunConfig.Profile is set, which is
// how the paper's Table VIII (with nvprof) differs from Table IX
// (without).
package profiler

import (
	"fmt"
	"sort"
	"strings"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
)

// KernelStat aggregates invocations of one kernel symbol, as nvprof's
// summary mode reports.
type KernelStat struct {
	Symbol      string
	Calls       int
	TotalSec    float64
	MinSec      float64
	MaxSec      float64
	PerCallSecs []float64
}

// AvgSec returns the mean time per invocation.
func (k KernelStat) AvgSec() float64 {
	if k.Calls == 0 {
		return 0
	}
	return k.TotalSec / float64(k.Calls)
}

// Summary is an nvprof summary-mode profile of one or more runs.
type Summary struct {
	Stats     []KernelStat
	MemcpySec float64
	TotalSec  float64 // the runs' latencies: memcpy plus every kernel's duration
	Runs      int
}

// Summarize aggregates run results into summary-mode statistics, sorted
// by total time descending (nvprof's default ordering).
func Summarize(results ...core.RunResult) Summary {
	bySym := map[string]*KernelStat{}
	var s Summary
	for _, r := range results {
		s.Runs++
		s.MemcpySec += r.MemcpySec
		s.TotalSec += r.LatencySec
		for _, k := range r.Kernels {
			st, ok := bySym[k.Symbol]
			if !ok {
				st = &KernelStat{Symbol: k.Symbol, MinSec: k.DurSec, MaxSec: k.DurSec}
				bySym[k.Symbol] = st
			}
			st.Calls++
			st.TotalSec += k.DurSec
			st.PerCallSecs = append(st.PerCallSecs, k.DurSec)
			if k.DurSec < st.MinSec {
				st.MinSec = k.DurSec
			}
			if k.DurSec > st.MaxSec {
				st.MaxSec = k.DurSec
			}
		}
	}
	for _, st := range bySym {
		s.Stats = append(s.Stats, *st)
	}
	sort.Slice(s.Stats, func(i, j int) bool {
		if s.Stats[i].TotalSec != s.Stats[j].TotalSec {
			return s.Stats[i].TotalSec > s.Stats[j].TotalSec
		}
		return s.Stats[i].Symbol < s.Stats[j].Symbol
	})
	return s
}

// Render prints the summary in nvprof's summary-mode layout. Time(%) is
// each row's share of TotalSec, so the column sums to 100.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==PROF== Profiling result (%d runs):\n", s.Runs)
	fmt.Fprintf(&b, "%10s  %7s  %12s  %12s  %12s  %s\n",
		"Time(%)", "Calls", "Avg", "Min", "Max", "Name")
	for _, st := range s.Stats {
		fmt.Fprintf(&b, "%9.2f%%  %7d  %10.3fus  %10.3fus  %10.3fus  %s\n",
			100*st.TotalSec/s.TotalSec, st.Calls,
			st.AvgSec()*1e6, st.MinSec*1e6, st.MaxSec*1e6, st.Symbol)
	}
	if s.MemcpySec > 0 {
		fmt.Fprintf(&b, "%9.2f%%  %7d  %10.3fms  [CUDA memcpy HtoD]\n",
			100*s.MemcpySec/s.TotalSec, s.Runs, s.MemcpySec/float64(s.Runs)*1e3)
	}
	return b.String()
}

// Trace renders GPU-trace mode: every kernel launch of a run in order.
func Trace(r core.RunResult) string {
	var b strings.Builder
	b.WriteString("==PROF== GPU trace:\n")
	t := r.MemcpySec
	if r.MemcpySec > 0 {
		fmt.Fprintf(&b, "%12.3fms  %10.3fms  [CUDA memcpy HtoD]\n", 0.0, r.MemcpySec*1e3)
	}
	for _, k := range r.Kernels {
		fmt.Fprintf(&b, "%12.3fms  %10.3fus  %s\n", t*1e3, k.DurSec*1e6, k.Symbol)
		t += k.DurSec
	}
	return b.String()
}

// TegraSample is one line of tegrastats output.
type TegraSample struct {
	RAMUsedMB  int
	RAMTotalMB int
	GPUUtilPct float64
	GPUFreqMHz float64
	PowerMW    int
}

// Render formats the sample in tegrastats' style, including the INA
// power rail reading.
func (t TegraSample) Render() string {
	return fmt.Sprintf("RAM %d/%dMB GR3D_FREQ %.0f%%@%.0f VDD_GPU_SOC %dmW",
		t.RAMUsedMB, t.RAMTotalMB, t.GPUUtilPct, t.GPUFreqMHz, t.PowerMW)
}

// Tegrastats samples the simulated device state for a concurrent
// inference workload: n threads of the given engine-derived load.
func Tegrastats(dev *gpusim.Device, load gpusim.StreamLoad, threads int) TegraSample {
	used := float64(threads)*load.PerThreadMemBytes/1e6 + 1800 // OS + runtime
	total := float64(dev.Spec.MemGB) * 1024
	if used > total {
		used = total
	}
	util := gpusim.GPUUtilization(dev, load, threads)
	return TegraSample{
		RAMUsedMB:  int(used),
		RAMTotalMB: int(total),
		GPUUtilPct: 100 * util,
		GPUFreqMHz: dev.ClockMHz,
		PowerMW:    int(dev.PowerW(util) * 1000),
	}
}
