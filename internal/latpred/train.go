package latpred

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/kernels"
)

// TrainOptions scopes training.
type TrainOptions struct {
	// Devices restricts training rows to these platform shorts ("NX",
	// "AGX"). Empty trains on everything — the transfer studies use the
	// filter to hold a whole device profile out.
	Devices []string
}

// DefaultTrainOptions returns the standard training configuration: rows
// from every device.
func DefaultTrainOptions() TrainOptions { return TrainOptions{} }

const (
	// ridgeLambda is the ridge strength (relative to row count): it
	// barely biases the fit but keeps collinear feature pairs (raw vs
	// device-normalized work terms) numerically tame.
	ridgeLambda = 1e-3
	// minRowsPerFamily drops families with fewer usable rows: an
	// under-determined fit would pass the residual gate on luck.
	minRowsPerFamily = 3 * NumFeatures
	// residualGate is copied onto the model as its confidence gate
	// (Model.MaxResidualLog): comfortably above the 0.13 tuner-noise
	// floor, well below a mis-modeled family.
	residualGate = 0.25
)

// TrainStats reports what Train consumed.
type TrainStats struct {
	Rows        int // usable training rows
	Skipped     int // cache entries filtered out or unparseable
	RowsByFam   map[kernels.Family]int
	DroppedFams []kernels.Family // families below minRowsPerFamily, or degenerate
}

// Train fits per-family regressors from a timing cache: every entry is
// parsed back into (device, variant, dims) with core.ParseTimingKey, the
// launch is re-planned to recover its features, and the cached observed
// seconds become the log-space target. Entries that fail to parse — a
// shared cache may carry foreign keys — are skipped, not fatal; training
// fails only when no family reaches minRowsPerFamily.
func Train(cache *core.TimingCache, opts TrainOptions) (*Model, TrainStats, error) {
	stats := TrainStats{RowsByFam: map[kernels.Family]int{}}
	if cache == nil {
		return nil, stats, fmt.Errorf("latpred: train on nil timing cache")
	}

	rowsByFam := map[kernels.Family][][NumFeatures]float64{}
	ysByFam := map[kernels.Family][]float64{}
	for _, key := range cache.Keys() { // sorted: training is deterministic
		obs, ok := cache.Lookup(key)
		if !ok || !(obs > 0) {
			stats.Skipped++
			continue
		}
		devStr, v, d, _, err := core.ParseTimingKey(key)
		if err != nil {
			stats.Skipped++
			continue
		}
		dev, err := ParseDeviceKey(devStr)
		if err != nil || len(opts.Devices) > 0 && !slices.Contains(opts.Devices, dev.Spec.Short()) {
			stats.Skipped++
			continue
		}
		ls := kernels.PlanConv(v, d)
		var f [NumFeatures]float64
		if !featuresInto(&f, dev, ls) {
			stats.Skipped++
			continue
		}
		fam := v.Family
		rowsByFam[fam] = append(rowsByFam[fam], f)
		ysByFam[fam] = append(ysByFam[fam], math.Log(obs))
		stats.Rows++
		stats.RowsByFam[fam]++
	}

	m := &Model{MaxResidualLog: residualGate, families: map[kernels.Family]*FamilyModel{}}
	for fam, rows := range rowsByFam {
		if len(rows) < minRowsPerFamily {
			stats.DroppedFams = append(stats.DroppedFams, fam)
			continue
		}
		fm, err := fitRidge(rows, ysByFam[fam], ridgeLambda)
		if err != nil {
			// A degenerate family (e.g. every row identical) is dropped,
			// not fatal: PredictSec answers ok=false for it and the tuner
			// times those layers in full.
			stats.DroppedFams = append(stats.DroppedFams, fam)
			continue
		}
		m.families[fam] = fm
	}
	sortFams(stats.DroppedFams)
	if len(m.families) == 0 {
		return nil, stats, fmt.Errorf("latpred: no family reached %d training rows (usable rows %d, skipped %d)",
			minRowsPerFamily, stats.Rows, stats.Skipped)
	}
	return m, stats, nil
}

// ParseDeviceKey parses the tuner's device-key format "SHORT@<clock>MHz"
// (e.g. "NX@599MHz") back into a configured device. Like cache keys, the
// input is untrusted: malformed strings return an error.
func ParseDeviceKey(s string) (*gpusim.Device, error) {
	at := strings.LastIndex(s, "@")
	if at < 0 {
		return nil, fmt.Errorf("latpred: device key %q: missing '@'", s)
	}
	spec, err := gpusim.ByName(s[:at])
	if err != nil {
		return nil, fmt.Errorf("latpred: device key %q: %w", s, err)
	}
	clockStr, okSuffix := strings.CutSuffix(s[at+1:], "MHz")
	if !okSuffix {
		return nil, fmt.Errorf("latpred: device key %q: missing MHz suffix", s)
	}
	clock, err := strconv.ParseFloat(clockStr, 64)
	if err != nil || !(clock > 0) {
		return nil, fmt.Errorf("latpred: device key %q: bad clock", s)
	}
	return gpusim.NewDevice(spec, clock), nil
}

// DeviceKey renders a device in the tuner's cache-key format, so study
// code can build filters that match what builds recorded.
func DeviceKey(dev *gpusim.Device) string {
	return fmt.Sprintf("%s@%.0fMHz", dev.Spec.Short(), dev.ClockMHz)
}

func sortFams(fams []kernels.Family) {
	for i := 1; i < len(fams); i++ {
		for j := i; j > 0 && fams[j] < fams[j-1]; j-- {
			fams[j], fams[j-1] = fams[j-1], fams[j]
		}
	}
}
