// Package metrics implements the paper's evaluation metrics: top-1
// classification error, IoU overlap of detection boxes, throughput
// (FPS), latency statistics over repeated runs, prediction-mismatch
// counting between engines, and the three-case latency-anomaly
// classification of Table VIII.
package metrics

import (
	"fmt"
	"math"
)

// Top1Error returns the percentage of predictions that differ from the
// labels. It panics on length mismatch — a harness bug, not a runtime
// condition.
func Top1Error(pred, label []int) float64 {
	if len(pred) != len(label) {
		panic(fmt.Sprintf("metrics: %d predictions vs %d labels", len(pred), len(label)))
	}
	if len(pred) == 0 {
		return 0
	}
	wrong := 0
	for i := range pred {
		if pred[i] != label[i] {
			wrong++
		}
	}
	return 100 * float64(wrong) / float64(len(pred))
}

// Mismatches counts positions where two prediction vectors disagree —
// the paper's Tables V and VI compare engine pairs this way.
func Mismatches(a, b []int) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: mismatch lengths %d vs %d", len(a), len(b)))
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// Rect is an axis-aligned rectangle for IoU computation.
type Rect struct{ X, Y, W, H int }

// IoU returns the intersection-over-union of two rectangles.
func IoU(a, b Rect) float64 {
	x1, y1 := max(a.X, b.X), max(a.Y, b.Y)
	x2, y2 := min(a.X+a.W, b.X+b.W), min(a.Y+a.H, b.Y+b.H)
	iw, ih := x2-x1, y2-y1
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := float64(iw * ih)
	union := float64(a.W*a.H+b.W*b.H) - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// LatencyStats summarizes repeated latency measurements.
type LatencyStats struct {
	MeanMS, StdMS, MinMS, MaxMS float64
	N                           int
}

// Latencies computes mean/std/min/max over latencies in seconds,
// reporting milliseconds (the paper's unit).
func Latencies(secs []float64) LatencyStats {
	if len(secs) == 0 {
		return LatencyStats{}
	}
	var sum float64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, s := range secs {
		sum += s
		mn = math.Min(mn, s)
		mx = math.Max(mx, s)
	}
	mean := sum / float64(len(secs))
	var sq float64
	for _, s := range secs {
		sq += (s - mean) * (s - mean)
	}
	std := 0.0
	if len(secs) > 1 {
		std = math.Sqrt(sq / float64(len(secs)-1))
	}
	return LatencyStats{MeanMS: mean * 1e3, StdMS: std * 1e3, MinMS: mn * 1e3, MaxMS: mx * 1e3, N: len(secs)}
}

// String renders "mean (std)" in the paper's table style.
func (l LatencyStats) String() string {
	return fmt.Sprintf("%.2f (%.2f)", l.MeanMS, l.StdMS)
}

// FPS converts a per-frame latency in seconds to frames per second.
func FPS(latencySec float64) float64 {
	if latencySec <= 0 {
		return 0
	}
	return 1 / latencySec
}

// AnomalyCase is the paper's Table VIII classification of "AGX slower
// than NX" anomalies.
type AnomalyCase int

const (
	// Case1 compares platform-specific engines: cNX_rNX vs cAGX_rAGX.
	Case1 AnomalyCase = iota + 1
	// Case2 runs the NX-built engine on both platforms: cNX_rNX vs cNX_rAGX.
	Case2
	// Case3 runs the AGX-built engine on both platforms: cAGX_rNX vs cAGX_rAGX.
	Case3
)

// String implements fmt.Stringer.
func (c AnomalyCase) String() string { return fmt.Sprintf("case %d", int(c)) }

// LatencyMatrix is one model's row of Table VIII: the four
// compile/run-platform combinations.
type LatencyMatrix struct {
	CNXRNX, CNXRAGX, CAGXRAGX, CAGXRNX LatencyStats
}

// Anomalies returns which of the paper's three cases show the AGX-slower
// anomaly, using mean latencies.
func (m LatencyMatrix) Anomalies() []AnomalyCase {
	var out []AnomalyCase
	if m.CAGXRAGX.MeanMS > m.CNXRNX.MeanMS {
		out = append(out, Case1)
	}
	if m.CNXRAGX.MeanMS > m.CNXRNX.MeanMS {
		out = append(out, Case2)
	}
	if m.CAGXRAGX.MeanMS > m.CAGXRNX.MeanMS {
		out = append(out, Case3)
	}
	return out
}

// AnomalyString renders the anomaly set like the paper's last column
// ("case 1, case 2" or "none").
func (m LatencyMatrix) AnomalyString() string {
	cs := m.Anomalies()
	if len(cs) == 0 {
		return "none"
	}
	s := ""
	for i, c := range cs {
		if i > 0 {
			s += ", "
		}
		s += c.String()
	}
	return s
}
