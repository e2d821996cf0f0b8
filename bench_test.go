package edgeinfer

// One benchmark per table and figure of the paper's evaluation: each
// regenerates its experiment end-to-end on the simulator, so
// `go test -bench=. -benchmem` reproduces the paper's entire results
// section. Reported custom metrics carry the experiment's headline
// numbers (error %, FPS gain, anomaly counts) into the benchmark output.
//
// Ablation benchmarks at the bottom toggle the design mechanisms that
// DESIGN.md §4 calls out (tuner noise, pruning, L2 contention) and report
// how the paper's phenomena respond.

import (
	"reflect"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/experiments"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/models"
)

// benchOpts keeps numeric experiments tractable under -bench.
func benchOpts() experiments.Options {
	return experiments.Options{
		BenignPerClass: 5,
		AdvPerClass:    1,
		AdvTypes: []dataset.Corruption{dataset.GaussianNoise, dataset.Fog,
			dataset.MotionBlur, dataset.Contrast},
		Runs:           10,
		EnginesPerSide: 3,
	}
}

func BenchmarkTable1_DeviceQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOpts())
		if len(lab.RenderTable1()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable2_ModelZooEngineSizes(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table2()
	}
	b.ReportMetric(rows[4].EngineNXMB, "googlenet-engine-MB")
	b.ReportMetric(rows[11].EngineNXMB, "mtcnn-engine-MB")
}

func BenchmarkTable3_BenignAccuracy(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table3()
	}
	b.ReportMetric(rows[0].NXError, "alexnet-trt-err%")
	b.ReportMetric(rows[0].UnoptError-rows[0].NXError, "alexnet-trt-gain%")
}

func BenchmarkTable4_AdversarialAccuracy(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table4()
	}
	b.ReportMetric(rows[0].NXError, "sev1-err%")
	b.ReportMetric(rows[1].NXError, "sev5-err%")
}

func BenchmarkTable5_CrossPlatformConsistency(b *testing.B) {
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table5()
	}
	total := 0
	for _, r := range rows {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				total += r.Mismatches[i][j]
			}
		}
	}
	b.ReportMetric(float64(total), "mismatches")
}

func BenchmarkTable6_SamePlatformConsistency(b *testing.B) {
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table6()
	}
	total := 0
	for _, r := range rows {
		total += r.M12 + r.M23 + r.M13
	}
	b.ReportMetric(float64(total), "mismatches")
}

func BenchmarkTable7_ThroughputGain(b *testing.B) {
	var rows []experiments.Table7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table7()
	}
	mean := 0.0
	for _, r := range rows {
		mean += r.NXGain / float64(len(rows))
	}
	b.ReportMetric(mean, "mean-trt-gain-x")
}

func BenchmarkFigure3_TinyYOLOConcurrency(b *testing.B) {
	var series []experiments.FigureSeries
	for i := 0; i < b.N; i++ {
		series = experiments.NewLab(benchOpts()).Figure3()
	}
	b.ReportMetric(float64(series[0].Saturation), "NX-threads")
	b.ReportMetric(float64(series[1].Saturation), "AGX-threads")
}

func BenchmarkFigure4_GoogLeNetConcurrency(b *testing.B) {
	var series []experiments.FigureSeries
	for i := 0; i < b.N; i++ {
		series = experiments.NewLab(benchOpts()).Figure4()
	}
	b.ReportMetric(float64(series[0].Saturation), "NX-threads")
	b.ReportMetric(float64(series[1].Saturation), "AGX-threads")
}

func BenchmarkTable8_LatencyMatrix(b *testing.B) {
	var rows []experiments.Table8Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table8()
	}
	anomalous := 0
	for _, r := range rows {
		if len(r.Matrix.Anomalies()) > 0 {
			anomalous++
		}
	}
	b.ReportMetric(float64(anomalous), "anomalous-models")
}

func BenchmarkTable9_NoProfiler(b *testing.B) {
	var rows []experiments.Table8Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table9()
	}
	b.ReportMetric(rows[0].Matrix.CNXRNX.MeanMS, "inceptionv4-ms")
}

func BenchmarkTable10_MemcpyDissection(b *testing.B) {
	var rows []experiments.Table10Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table10()
	}
	memcpySlower := 0
	for _, r := range rows {
		if r.MemcpyAnomalous {
			memcpySlower++
		}
	}
	b.ReportMetric(float64(memcpySlower), "memcpy-slower-on-AGX")
}

func BenchmarkTable11_KernelComparison(b *testing.B) {
	var rows []experiments.Table11Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table11()
	}
	slower := 0
	for _, r := range rows {
		if r.SlowerOnAGX {
			slower++
		}
	}
	b.ReportMetric(float64(slower), "kernels-slower-on-AGX")
}

func BenchmarkTable12_EngineVariance(b *testing.B) {
	var rows []experiments.Table12Row
	for i := 0; i < b.N; i++ {
		rows = experiments.NewLab(benchOpts()).Table12()
	}
	varies := 0
	for _, r := range rows {
		if r.Varies {
			varies++
		}
	}
	b.ReportMetric(float64(varies), "models-varying")
}

func BenchmarkTable13_KernelCounts(b *testing.B) {
	var r experiments.Table13Result
	for i := 0; i < b.N; i++ {
		r = experiments.NewLab(benchOpts()).Table13()
	}
	b.ReportMetric(float64(r.Calls[0]), "engine1-calls")
	b.ReportMetric(float64(r.Calls[2]), "engine3-calls")
}

func BenchmarkTable17_BSPInceptionV4(b *testing.B) {
	var r experiments.Table17Result
	for i := 0; i < b.N; i++ {
		r = experiments.NewLab(benchOpts()).Table17()
	}
	b.ReportMetric(r.ErrorSpreadPct, "error-spread-pct")
}

func BenchmarkTable18_BSPMobileNet(b *testing.B) {
	var r experiments.Table17Result
	for i := 0; i < b.N; i++ {
		r = experiments.NewLab(benchOpts()).Table18()
	}
	b.ReportMetric(r.ErrorSpreadPct, "error-spread-pct")
}

// --- ablations (DESIGN.md §4) ----------------------------------------------

// BenchmarkAblationTunerNoise shows that the paper's non-determinism is
// entirely the tuner's measurement noise: with noise off, repeated builds
// are identical; with the default noise, they differ.
func BenchmarkAblationTunerNoise(b *testing.B) {
	g := models.MustBuild("inceptionv4")
	differWithNoise, differWithout := 0, 0
	for i := 0; i < b.N; i++ {
		noisy1, _ := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), 1))
		noisy2, _ := core.Build(g, core.DefaultConfig(gpusim.XavierNX(), 2))
		if !reflect.DeepEqual(noisy1.KernelCounts(), noisy2.KernelCounts()) {
			differWithNoise++
		}
		cfg1, cfg2 := core.DefaultConfig(gpusim.XavierNX(), 1), core.DefaultConfig(gpusim.XavierNX(), 2)
		cfg1.TunerNoise, cfg2.TunerNoise = 0, 0
		det1, _ := core.Build(g, cfg1)
		det2, _ := core.Build(g, cfg2)
		if !reflect.DeepEqual(det1.KernelCounts(), det2.KernelCounts()) {
			differWithout++
		}
	}
	b.ReportMetric(float64(differWithNoise)/float64(b.N), "builds-differ-noisy")
	b.ReportMetric(float64(differWithout)/float64(b.N), "builds-differ-noise0")
}

// BenchmarkAblationPruning isolates the accuracy mechanism of Finding 1:
// with pruning disabled, the un-optimized model's overfit perturbation
// survives quantization and the TensorRT accuracy gain disappears.
func BenchmarkAblationPruning(b *testing.B) {
	proxy, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		b.Fatal(err)
	}
	set := dataset.Benign(dataset.BenignConfig{Seed: "imagenet-proxy", Classes: 100, PerClass: 3, NoiseSigma: 3.8})
	errOf := func(prune float64) float64 {
		cfg := core.DefaultConfig(gpusim.XavierNX(), 1)
		cfg.PruneFrac = prune
		e, err := core.Build(proxy, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var pred, labels []int
		for _, s := range set {
			o, err := e.Infer(s.Image)
			if err != nil {
				b.Fatal(err)
			}
			pred = append(pred, o[0].Argmax())
			labels = append(labels, s.Label)
		}
		return metrics.Top1Error(pred, labels)
	}
	var withPrune, withoutPrune float64
	for i := 0; i < b.N; i++ {
		withPrune = errOf(0.6)
		withoutPrune = errOf(0)
	}
	b.ReportMetric(withPrune, "err%-pruned")
	b.ReportMetric(withoutPrune, "err%-unpruned")
}

// BenchmarkAblationL2Contention quantifies the shared-L2 mechanism behind
// Finding 5 by comparing a 73KB-working-set kernel's latency ratio
// between the platforms against a small-working-set one.
func BenchmarkAblationL2Contention(b *testing.B) {
	nx := gpusim.NewDevice(gpusim.XavierNX(), 599)
	agx := gpusim.NewDevice(gpusim.XavierAGX(), 624)
	var bigRatio, smallRatio float64
	for i := 0; i < b.N; i++ {
		big := nx.L2ContentionFactor(86016) / agx.L2ContentionFactor(86016)
		small := nx.L2ContentionFactor(32*1024) / agx.L2ContentionFactor(32*1024)
		bigRatio, smallRatio = 1/big, 1/small
	}
	b.ReportMetric(bigRatio, "AGX-penalty-73KB-ws")
	b.ReportMetric(smallRatio, "AGX-penalty-32KB-ws")
}

// BenchmarkExtensionPrecisionStudy runs the FP32/FP16/INT8 extension
// experiment (percentile-calibrated INT8 engines).
func BenchmarkExtensionPrecisionStudy(b *testing.B) {
	var rows []experiments.PrecisionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.NewLab(benchOpts()).PrecisionStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Model == "resnet18" && r.Precision.String() == "int8" {
			b.ReportMetric(r.FPSGainVs32, "resnet18-int8-speedup-x")
			b.ReportMetric(r.ErrorPct, "resnet18-int8-err%")
		}
	}
}
