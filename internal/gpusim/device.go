package gpusim

import (
	"math"
)

// Device is a platform with a configured GPU clock. The paper pins both
// boards to comparable clocks (599 MHz NX, 624 MHz AGX) for the latency
// study and uses max clocks (1109.25 / 1377 MHz) for the concurrency
// study; Device captures that run-time setting.
type Device struct {
	Spec     DeviceSpec
	ClockMHz float64
}

// NewDevice creates a device at the given GPU clock in MHz. A zero clock
// selects the spec's maximum.
func NewDevice(spec DeviceSpec, clockMHz float64) *Device {
	if clockMHz <= 0 {
		clockMHz = spec.GPUClockMHz
	}
	return &Device{Spec: spec, ClockMHz: clockMHz}
}

// PaperLatencyClock returns the clock (MHz) the paper fixes for the
// latency experiments on this platform (599 NX / 624 AGX).
func PaperLatencyClock(spec DeviceSpec) float64 {
	if spec.Short() == "AGX" {
		return 624
	}
	return 599
}

// PaperMaxClock returns the clock (MHz) the paper reports for the
// concurrency experiments (tegrastats-observed boost clocks).
func PaperMaxClock(spec DeviceSpec) float64 {
	if spec.Short() == "AGX" {
		return 1377
	}
	return 1109.25
}

// PeakFLOPS returns the device's peak arithmetic rate in FLOP/s at the
// configured clock: 2 FLOPs/cycle per CUDA core for FP32, or 128
// FLOPs/cycle per tensor core for FP16 HMMA kernels.
func (d *Device) PeakFLOPS(tensorCore bool) float64 {
	clockHz := d.ClockMHz * 1e6
	if tensorCore {
		return float64(d.Spec.TensorCores) * 128 * clockHz
	}
	return float64(d.Spec.CUDACores) * 2 * clockHz
}

// DRAMBandwidth returns the effective DRAM bandwidth in bytes/s at the
// device's clock setting. On platforms whose power modes couple the EMC
// to the GPU clock (AGX), pinning the GPU below maximum proportionally
// reduces memory bandwidth; otherwise the memory clock is independent.
func (d *Device) DRAMBandwidth() float64 {
	bw := d.Spec.MemBWGBs * 1e9
	if d.Spec.MemClockFollowsGPU {
		// nvpmodel power modes step the EMC down coarsely with the GPU
		// clock; at the paper's 624 MHz AGX setting the memory system
		// delivers less bandwidth than NX's full-EMC 51.2 GB/s.
		switch {
		case d.ClockMHz >= 1200:
			// full mode
		case d.ClockMHz >= 800:
			bw *= 0.57
		default:
			bw *= 0.28
		}
	}
	return bw
}

// Waves returns the number of SM waves needed to run the given number of
// thread blocks.
func (d *Device) Waves(blocks int) int {
	if blocks <= 0 {
		return 0
	}
	return (blocks + d.Spec.SMs - 1) / d.Spec.SMs
}

// WaveEfficiency returns the fraction of SM-wave slots actually occupied
// by the given grid: blocks / (waves * SMs). A grid of 6 blocks is
// perfectly efficient on the 6-SM NX (1.0) but wastes a quarter of the
// machine on the 8-SM AGX (0.75) — one mechanism behind the paper's
// "engine tuned on NX runs slower on AGX" anomaly (case 2).
func (d *Device) WaveEfficiency(blocks int) float64 {
	if blocks <= 0 {
		return 1
	}
	return float64(blocks) / float64(d.Waves(blocks)*d.Spec.SMs)
}

// l2ContentionBeta scales the slowdown from L2 thrashing: the overcommit
// fraction approximates the extra miss rate, and a DRAM miss costs
// several times an L2 hit, so the multiplier rises steeply.
const l2ContentionBeta = 4.0

// L2SharePerSMBytes is each SM's fair share of the L2 cache. Kernels
// whose per-SM working set exceeds it thrash (see L2ContentionFactor);
// the ratio of working set to this share is an engineered feature of the
// learned latency predictor.
func (d *Device) L2SharePerSMBytes() int64 {
	return int64(d.Spec.L2KB) * 1024 / int64(d.Spec.SMs)
}

// L2ContentionFactor returns a latency multiplier (>= 1) for a kernel
// whose per-SM working set is the given number of bytes. Both platforms
// share the same 512 KB L2 (Table I), so the per-SM share is smaller on
// the 8-SM AGX (64 KB) than the 6-SM NX (85 KB): kernels with working
// sets between those shares thrash on AGX but not on NX. This is the
// simulator's root cause for the paper's Finding 5 (some CUDA kernels run
// slower on the bigger platform).
func (d *Device) L2ContentionFactor(perSMWorkingSet int64) float64 {
	if perSMWorkingSet <= 0 {
		return 1
	}
	share := d.L2SharePerSMBytes()
	if perSMWorkingSet <= share {
		return 1
	}
	over := float64(perSMWorkingSet-share) / float64(perSMWorkingSet)
	return 1 + l2ContentionBeta*over
}

// LaunchOverheadSec returns the host-side cost of one kernel launch in
// seconds. It is a CPU cost and does not scale with GPU clock.
func (d *Device) LaunchOverheadSec() float64 {
	return 9e-6
}

// MemcpyH2DSec returns the host-to-device copy time in seconds for a
// payload of the given size split into the given number of chunks
// (typically one chunk per engine weight binding). Cost is per-chunk
// setup plus streaming at the effective pageable H2D bandwidth.
// Negative sizes (a corrupted engine header can produce one) are clamped
// to zero: the copy degenerates to per-chunk setup cost instead of
// crashing the caller.
func (d *Device) MemcpyH2DSec(bytes int64, chunks int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	if chunks < 1 {
		chunks = 1
	}
	return float64(chunks)*d.Spec.H2DSetupUS*1e-6 + float64(bytes)/(d.Spec.H2DBWGBs*1e9)
}

// MaxConcurrentThreads bounds the number of concurrently sustainable
// inference threads by DRAM bandwidth, following the paper's Eq. (1):
// N = O(Fmem * Bwid / Bth) where Bth is the per-thread bandwidth demand
// in bytes/s. The numerator is exactly the device's DRAM bandwidth.
func (d *Device) MaxConcurrentThreads(perThreadBytesPerSec float64) int {
	if perThreadBytesPerSec <= 0 {
		return math.MaxInt32
	}
	n := int(d.DRAMBandwidth() / perThreadBytesPerSec)
	if n < 1 {
		n = 1
	}
	return n
}

// Power model constants: idle SoC draw plus GPU dynamic power scaling
// with utilization and (super-linearly, via DVFS voltage) with clock.
const (
	powerClockExponent = 2.5
)

// PowerW estimates board power in watts at the given GPU utilization
// (0..1), the quantity tegrastats reports from the INA rails. The AGX
// carries a larger GPU and memory system, hence its higher envelope
// (10-65W module vs the NX's 10-20W).
func (d *Device) PowerW(gpuUtil float64) float64 {
	if gpuUtil < 0 {
		gpuUtil = 0
	}
	if gpuUtil > 1 {
		gpuUtil = 1
	}
	idle, gpuMax := 2.5, 12.0
	if d.Spec.Short() == "AGX" {
		idle, gpuMax = 5.0, 30.0
	}
	clockFrac := d.ClockMHz / PaperMaxClock(d.Spec)
	if clockFrac > 1 {
		clockFrac = 1
	}
	dyn := gpuMax * gpuUtil * pow(clockFrac, powerClockExponent)
	return idle + dyn
}

// pow is a small positive-base power helper (math.Pow without the import
// churn for special cases).
func pow(base, exp float64) float64 {
	return math.Exp(exp * math.Log(base))
}
