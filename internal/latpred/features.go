package latpred

import (
	"math"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// The engineered feature vector, in log space where the latency surface
// is near-linear. Device terms (peak rate at the configured clock, DRAM
// bandwidth, wave and L2 geometry) are folded into the features rather
// than learned per device, which is what lets a model trained on one
// device profile transfer to an unseen one. absRoofline is the hinge
// |logCompute - logStream|: together with the two ratio terms it lets a
// linear model represent log(max(compute, stream)) exactly —
// max(a,b) = (a+b)/2 + |a-b|/2 — so the regressor can learn a roofline
// without being handed the analytic answer (per-family efficiencies and
// tile curves remain for it to infer from data).
const (
	featIntercept   = iota // 1
	featLogFLOPs           // log FLOPs of the launch
	featLogBytes           // log DRAM traffic
	featLogCompute         // log(FLOPs / peak rate for the family's core type)
	featLogStream          // log(MemBytes / DRAM bandwidth)
	featAbsRoofline        // |logCompute - logStream|
	featLogWaveEff         // log wave efficiency of the grid on this device
	featLogL2Press         // log(working set / per-SM L2 share), floored at 0
	featLogTileUtil        // log tile-slot utilization
	featLogTileArea        // log(TileM * TileN)
	featLogSplitK          // log split-K factor
	featFusedAct           // epilogue-fused activation flag
	featInt8               // IMMA-rate flag (INT8 on tensor cores)

	// NumFeatures is the feature-vector width.
	NumFeatures
)

// featuresInto fills f for a launch priced on dev, returning false when
// the launch is degenerate (non-positive work, traffic, or peaks) and no
// meaningful prediction exists. Writing into a caller-owned array keeps
// the predict path allocation-free (//rt:hotpath on Model.PredictSec).
func featuresInto(f *[NumFeatures]float64, dev *gpusim.Device, ls kernels.LaunchSpec) bool {
	peak := dev.PeakFLOPS(ls.V.Family.TensorCore())
	bw := dev.DRAMBandwidth()
	waveEff := dev.WaveEfficiency(ls.Blocks)
	util := ls.TileUtilization()
	if ls.FLOPs <= 0 || ls.MemBytes <= 0 || peak <= 0 || bw <= 0 || waveEff <= 0 || util <= 0 {
		return false
	}
	logFLOPs := math.Log(float64(ls.FLOPs))
	logBytes := math.Log(float64(ls.MemBytes))
	logCompute := logFLOPs - math.Log(peak)
	logStream := logBytes - math.Log(bw)

	f[featIntercept] = 1
	f[featLogFLOPs] = logFLOPs
	f[featLogBytes] = logBytes
	f[featLogCompute] = logCompute
	f[featLogStream] = logStream
	f[featAbsRoofline] = math.Abs(logCompute - logStream)
	f[featLogWaveEff] = math.Log(waveEff)
	f[featLogL2Press] = logL2Pressure(dev, ls.WorkingSet)
	f[featLogTileUtil] = math.Log(util)
	f[featLogTileArea] = logTileArea(ls.V)
	f[featLogSplitK] = logSplitK(ls.V)
	f[featFusedAct] = boolFeat(ls.V.FusedAct)
	f[featInt8] = boolFeat(ls.V.Precision == tensor.INT8 && ls.V.Family.TensorCore())
	return true
}

// logL2Pressure is the log overcommit of the launch's per-SM working set
// against the device's L2 share, floored at zero: working sets inside
// the share exert no pressure, and the floor keeps the feature from
// rewarding tiny kernels.
func logL2Pressure(dev *gpusim.Device, workingSet int64) float64 {
	share := dev.L2SharePerSMBytes()
	if workingSet <= 0 || share <= 0 || workingSet <= share {
		return 0
	}
	return math.Log(float64(workingSet) / float64(share))
}

func logTileArea(v kernels.Variant) float64 {
	area := v.TileM * v.TileN
	if area < 1 {
		area = 1
	}
	return math.Log(float64(area))
}

func logSplitK(v kernels.Variant) float64 {
	if v.SplitK <= 1 {
		return 0
	}
	return math.Log(float64(v.SplitK))
}

func boolFeat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
