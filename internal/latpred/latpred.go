// Package latpred is a learned latency predictor for the simulated edge
// devices, after MAPLE-Edge (PAPERS.md): instead of exhaustively timing
// every tactic on the device, a small per-kernel-family ridge regressor
// — trained on the measurements the tuner already banks in the
// core.TimingCache — predicts a candidate launch's latency from
// engineered features (dims-derived FLOPs and traffic, occupancy and
// L2-pressure terms, device peaks). Two consumers:
//
//   - core.Build (via BuildConfig.Predictor) pre-prunes the tuner's
//     candidate menu so cold builds time only the predicted top-k,
//     cutting the modeled tactic-timing cost without changing tactic
//     choices;
//   - the §VI-B extension study predicts engines on *unseen* device
//     profiles (train on NX, predict AGX; train at one clock, predict
//     another) as a learned rival to the paper's analytic BSP model.
package latpred

import (
	"fmt"
	"math"
	"sort"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
)

// FamilyModel is one kernel family's fitted ridge regressor over the
// standardized feature vector, predicting log-latency.
type FamilyModel struct {
	Weights [NumFeatures]float64 // coefficients over standardized features
	Mean    [NumFeatures]float64 // per-feature training mean
	Std     [NumFeatures]float64 // per-feature training std (1 for constants)
	// ResidualLog is the train-set RMSE in log space — the model's
	// confidence figure. The tuner-noise floor is about 0.13 (sysSigma
	// 0.10 + jitter 0.08 in quadrature), so a residual well above that
	// means the family's latency surface was not captured.
	ResidualLog float64
	Rows        int // training rows behind the fit
}

// Model is a set of per-family regressors plus the confidence gate that
// decides when a prediction is trustworthy enough to prune on.
type Model struct {
	// MaxResidualLog is the safety valve: families whose train-set
	// residual exceeds it answer ok=false from PredictSec, sending the
	// tuner back to full timing for their layers.
	MaxResidualLog float64

	families map[kernels.Family]*FamilyModel
}

// NewModel assembles a model from per-family fits (primarily for tests;
// Train is the production constructor).
func NewModel(maxResidualLog float64, families map[kernels.Family]*FamilyModel) *Model {
	m := &Model{MaxResidualLog: maxResidualLog, families: map[kernels.Family]*FamilyModel{}}
	for f, fm := range families {
		m.families[f] = fm
	}
	return m
}

// Families returns the fitted families in deterministic order.
func (m *Model) Families() []kernels.Family {
	out := make([]kernels.Family, 0, len(m.families))
	for f := range m.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Family returns the fitted regressor for a family, if any.
func (m *Model) Family(f kernels.Family) (*FamilyModel, bool) {
	fm, ok := m.families[f]
	return fm, ok
}

// PredictSec estimates the noise-free latency of a candidate launch on a
// device. It implements core.LatencyPredictor. ok is false when the
// launch's family has no trained regressor, the family's residual fails
// the confidence gate, or the launch's features are degenerate — the
// tuner then falls back to timing the full candidate menu, so a gap in
// the model can never change a tactic choice.
//
//rt:hotpath
func (m *Model) PredictSec(dev *gpusim.Device, ls kernels.LaunchSpec) (float64, bool) {
	if m == nil || dev == nil {
		return 0, false
	}
	fm, ok := m.families[ls.V.Family]
	if !ok || fm.ResidualLog > m.MaxResidualLog {
		return 0, false
	}
	var f [NumFeatures]float64
	if !featuresInto(&f, dev, ls) {
		return 0, false
	}
	logSec := 0.0
	for i := 0; i < NumFeatures; i++ {
		logSec += fm.Weights[i] * (f[i] - fm.Mean[i]) / fm.Std[i]
	}
	if math.IsNaN(logSec) || math.IsInf(logSec, 0) {
		return 0, false
	}
	sec := math.Exp(logSec)
	if !(sec > 0) || math.IsInf(sec, 0) {
		return 0, false
	}
	return sec, true
}

// String summarizes the model for logs and study tables.
func (m *Model) String() string {
	s := fmt.Sprintf("latpred.Model{gate %.3f", m.MaxResidualLog)
	for _, f := range m.Families() {
		fm := m.families[f]
		s += fmt.Sprintf(", %s: %d rows rmse %.3f", f, fm.Rows, fm.ResidualLog)
	}
	return s + "}"
}
