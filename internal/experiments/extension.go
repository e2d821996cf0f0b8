package experiments

import (
	"fmt"

	"edgeinfer/internal/core"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// Extension experiment (beyond the paper's FP16-only engines): the full
// precision study across FP32/FP16/INT8, with entropy-style percentile
// calibration for INT8. The paper lists INT8 quantization as part of
// TensorRT's optimization step 4 but evaluates FP16 engines; this
// extension completes the picture.

// PrecisionRow is one (model, precision) cell of the study.
type PrecisionRow struct {
	Model       string
	Precision   tensor.Precision
	ErrorPct    float64
	LatencyMS   float64 // full-scale engine on NX at the latency clock
	EngineMB    float64
	WeightMB    float64
	FPSGainVs32 float64
}

// PrecisionStudy runs the three classifiers at the three precisions.
func (l *Lab) PrecisionStudy() ([]PrecisionRow, error) {
	set := l.benignSet()
	images := make([]*tensor.Tensor, len(set))
	labels := make([]int, len(set))
	for i, s := range set {
		images[i], labels[i] = s.Image, s.Label
	}
	var calib []*tensor.Tensor
	for i := 0; i < 8 && i < len(images); i++ {
		calib = append(calib, images[i])
	}
	dev := latencyDevice("NX")
	var out []PrecisionRow
	for _, m := range classifierModels {
		proxy, err := l.proxyGraph(m)
		if err != nil {
			return nil, err
		}
		full, err := models.Build(m)
		if err != nil {
			return nil, err
		}
		var fp32ms float64
		for _, prec := range []tensor.Precision{tensor.FP32, tensor.FP16, tensor.INT8} {
			cfg := core.DefaultConfig(platformSpec("NX"), 1)
			cfg.Precision = prec
			if prec == tensor.INT8 {
				cfg.Calibrator = core.PercentileCalibrator{Images: calib, Pct: 99.9}
			}
			// Lab-cached like every engine whose predictions are: a second
			// study reuses both instead of pinning nine more engines.
			pe, err := l.cachedEngine(fmt.Sprintf("prec/%s/%s", m, prec), func() (*core.Engine, error) {
				return core.Build(proxy, cfg)
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: build %s proxy at %s: %w", m, prec, err)
			}
			pred, err := l.classifyE(pe, images)
			if err != nil {
				return nil, err
			}
			fullCfg := core.DefaultConfig(platformSpec("NX"), 1)
			fullCfg.Precision = prec
			fe, err := core.Build(full, fullCfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: build %s at %s: %w", m, prec, err)
			}
			lat := fe.Run(core.RunConfig{Device: dev}).LatencySec * 1e3
			if prec == tensor.FP32 {
				fp32ms = lat
			}
			out = append(out, PrecisionRow{
				Model: m, Precision: prec,
				ErrorPct:    metrics.Top1Error(pred, labels),
				LatencyMS:   lat,
				EngineMB:    float64(fe.SizeBytes()) / 1e6,
				WeightMB:    float64(fe.WeightBytes()) / 1e6,
				FPSGainVs32: fp32ms / lat,
			})
		}
	}
	return out, nil
}

// RenderPrecisionStudy formats the extension table.
func (l *Lab) RenderPrecisionStudy() (string, error) {
	rows, err := l.PrecisionStudy()
	if err != nil {
		return "", err
	}
	t := &table{
		title:  "Extension: precision study (FP32/FP16/INT8 engines on NX, percentile-calibrated INT8)",
		header: []string{"NN Model", "Precision", "Top-1 Err(%)", "Latency (ms)", "Weights (MB)", "Engine (MB)", "Speedup vs FP32"},
	}
	for _, r := range rows {
		t.add(r.Model, r.Precision.String(), f2(r.ErrorPct), f2(r.LatencyMS),
			f2(r.WeightMB), f2(r.EngineMB), f2(r.FPSGainVs32)+"x")
	}
	return t.String(), nil
}
