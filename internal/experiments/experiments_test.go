package experiments

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/tensor"
)

// tinyOpts keeps the numeric experiments fast in unit tests.
func tinyOpts() Options {
	return Options{
		BenignPerClass: 2,
		AdvPerClass:    1,
		AdvTypes:       []dataset.Corruption{dataset.GaussianNoise, dataset.Fog},
		Runs:           4,
		EnginesPerSide: 3,
	}
}

func TestTable1RendersBothPlatforms(t *testing.T) {
	out := NewLab(tinyOpts()).RenderTable1()
	for _, want := range []string{"Xavier NX", "Xavier AGX", "384", "512"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTable2AllModelsAndSizes(t *testing.T) {
	rows := NewLab(tinyOpts()).Table2()
	if len(rows) != 13 {
		t.Fatalf("%d rows, want 13", len(rows))
	}
	for _, r := range rows {
		if r.EngineNXMB <= 0 || r.EngineAGXMB <= 0 {
			t.Errorf("%s: non-positive engine sizes", r.Model)
		}
		if r.Model == "mtcnn" {
			if r.EngineNXMB <= r.ModelMB {
				t.Error("mtcnn engine should exceed its model size")
			}
		}
		if r.Model == "googlenet" {
			if r.EngineNXMB >= r.ModelMB/2 {
				t.Error("googlenet engine should be far below half its model (dead aux heads)")
			}
		}
	}
}

func TestTable3Finding1(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.Table3()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	gain := 0
	for _, r := range rows {
		if r.UnoptError >= r.NXError {
			gain++
		}
		if r.NXError < 10 || r.NXError > 80 {
			t.Errorf("%s TRT error %.1f%% implausible", r.Model, r.NXError)
		}
	}
	if gain < 2 {
		t.Errorf("Finding 1 not reproduced: only %d/3 models improve under TensorRT", gain)
	}
}

func TestTable4SeverityTrend(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.Table4()
	bySev := map[string]map[int]Table4Row{}
	for _, r := range rows {
		if bySev[r.Model] == nil {
			bySev[r.Model] = map[int]Table4Row{}
		}
		bySev[r.Model][r.Severity] = r
	}
	for m, sev := range bySev {
		if sev[5].NXError <= sev[1].NXError {
			t.Errorf("%s: severity 5 error %.1f%% not above severity 1 %.1f%%",
				m, sev[5].NXError, sev[1].NXError)
		}
	}
}

func TestTable5And6MismatchesWithinPaperRegime(t *testing.T) {
	// Mismatch rates are ~0.1-0.8% of predictions, so this test needs a
	// larger sample than tinyOpts to observe any.
	opts := tinyOpts()
	opts.AdvPerClass = 2
	opts.AdvTypes = []dataset.Corruption{dataset.GaussianNoise, dataset.Fog,
		dataset.MotionBlur, dataset.Contrast}
	lab := NewLab(opts)
	any := 0
	for _, r := range lab.Table5() {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m := r.Mismatches[i][j]
				if m < 0 || m > r.Total {
					t.Fatalf("%s mismatch %d out of range", r.Model, m)
				}
				any += m
				// paper: 0.1-0.8% of predictions; allow up to 3%
				if float64(m)/float64(r.Total) > 0.03 {
					t.Errorf("%s: NX%d-AGX%d mismatch rate %.1f%% too high",
						r.Model, i+1, j+1, 100*float64(m)/float64(r.Total))
				}
			}
		}
	}
	if any == 0 {
		t.Error("Finding 2 not reproduced: zero cross-platform mismatches anywhere")
	}
	for _, r := range lab.Table6() {
		if r.M12 < 0 || r.M12 > r.Total {
			t.Fatalf("bad mismatch count %+v", r)
		}
	}
}

func TestTable7Gains(t *testing.T) {
	rows := NewLab(tinyOpts()).Table7()
	for _, r := range rows {
		if r.NXGain < 8 || r.NXGain > 90 {
			t.Errorf("%s NX gain %.1fx outside a plausible band around the paper's 23-27x", r.Model, r.NXGain)
		}
		if r.NXTRT <= r.NXUnopt {
			t.Errorf("%s: TRT not faster than unopt", r.Model)
		}
	}
}

func TestFiguresSaturationCounts(t *testing.T) {
	lab := NewLab(tinyOpts())
	f3 := lab.Figure3()
	if f3[0].Saturation != 28 {
		t.Errorf("Figure 3 NX saturation %d, paper observes 28", f3[0].Saturation)
	}
	if f3[1].Saturation < 32 || f3[1].Saturation > 42 {
		t.Errorf("Figure 3 AGX saturation %d, paper observes 36", f3[1].Saturation)
	}
	f4 := lab.Figure4()
	if f4[0].Saturation != 16 {
		t.Errorf("Figure 4 NX saturation %d, paper observes 16", f4[0].Saturation)
	}
	if f4[1].Saturation < 20 || f4[1].Saturation > 28 {
		t.Errorf("Figure 4 AGX saturation %d, paper observes 24", f4[1].Saturation)
	}
	// Utilization must rise and stay within the paper's 80-86% ceiling.
	for _, fs := range append(f3, f4...) {
		last := fs.Points[len(fs.Points)-1]
		if last.GPUUtilization < 60 || last.GPUUtilization > 87 {
			t.Errorf("%s-%s saturated utilization %.1f%%", fs.Platform, fs.Model, last.GPUUtilization)
		}
	}
}

func TestTable8AnomaliesExist(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.Table8()
	if len(rows) != 13 {
		t.Fatalf("%d rows", len(rows))
	}
	anomalous := 0
	for _, r := range rows {
		if len(r.Matrix.Anomalies()) > 0 {
			anomalous++
		}
	}
	// The paper finds anomalies in 9 of 13 models; require a majority.
	if anomalous < 5 {
		t.Errorf("only %d/13 models show AGX-slower anomalies", anomalous)
	}
}

func TestTable9AnomaliesPersistWithoutProfiler(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.Table9()
	persist := 0
	for _, r := range rows {
		if len(r.Matrix.Anomalies()) > 0 {
			persist++
		}
		// Latency without nvprof must be lower than with it.
	}
	if persist == 0 {
		t.Error("anomalies vanish without the profiler — they should not")
	}
}

func TestTable10MemcpyDissection(t *testing.T) {
	lab := NewLab(tinyOpts())
	for _, r := range lab.Table10() {
		if r.NXIncl.MeanMS <= r.NXExcl.MeanMS {
			t.Errorf("%s: memcpy-included not slower on NX", r.Model)
		}
		if r.AGXIncl.MeanMS <= r.AGXExcl.MeanMS {
			t.Errorf("%s: memcpy-included not slower on AGX", r.Model)
		}
	}
}

func TestTable11HasAGXSlowKernels(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.Table11()
	slower := 0
	for _, r := range rows {
		if r.SlowerOnAGX {
			slower++
		}
	}
	if slower == 0 {
		t.Error("Finding 5 not reproduced: no kernel runs slower on AGX")
	}
}

func TestTable12EngineVariance(t *testing.T) {
	lab := NewLab(tinyOpts())
	varies := 0
	for _, r := range lab.Table12() {
		if r.Varies {
			varies++
		}
	}
	if varies < 3 {
		t.Errorf("only %d/13 models vary across engine builds", varies)
	}
}

func TestTable13CountsDiffer(t *testing.T) {
	lab := NewLab(tinyOpts())
	r := lab.Table13()
	if r.Symbol == "" {
		t.Fatal("no kernel selected")
	}
	if r.Calls[0] == r.Calls[1] && r.Calls[1] == r.Calls[2] {
		t.Errorf("invocation counts identical across engines: %v", r.Calls)
	}
}

func TestTables17And18(t *testing.T) {
	lab := NewLab(tinyOpts())
	for _, r := range []Table17Result{lab.Table17(), lab.Table18()} {
		for _, rep := range r.Reports {
			if rep.ErrorPct < 0 || rep.ErrorPct > 80 {
				t.Errorf("%s: prediction error %.1f%% implausible", rep.Engine, rep.ErrorPct)
			}
		}
		if r.ErrorSpreadPct <= 0 {
			t.Errorf("%s: no prediction-error spread across engines", r.Model)
		}
	}
}

func TestRenderersNonEmpty(t *testing.T) {
	lab := NewLab(tinyOpts())
	renders := map[string]func() string{
		"t1": lab.RenderTable1, "t2": lab.RenderTable2, "t7": lab.RenderTable7,
		"t14": lab.RenderTable14, "t15": lab.RenderTable15, "t16": lab.RenderTable16,
		"f3": lab.RenderFigure3, "f4": lab.RenderFigure4,
	}
	for name, fn := range renders {
		if len(fn()) < 100 {
			t.Errorf("%s render too short", name)
		}
	}
}

func TestPrecisionStudyExtension(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows, err := lab.PrecisionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 3 models x 3 precisions", len(rows))
	}
	byModel := map[string]map[string]PrecisionRow{}
	for _, r := range rows {
		if byModel[r.Model] == nil {
			byModel[r.Model] = map[string]PrecisionRow{}
		}
		byModel[r.Model][r.Precision.String()] = r
	}
	for m, precs := range byModel {
		if precs["fp16"].LatencyMS >= precs["fp32"].LatencyMS {
			t.Errorf("%s: fp16 not faster than fp32", m)
		}
		if precs["int8"].LatencyMS >= precs["fp16"].LatencyMS {
			t.Errorf("%s: int8 not faster than fp16", m)
		}
		if precs["int8"].WeightMB >= precs["fp16"].WeightMB {
			t.Errorf("%s: int8 weights not smaller", m)
		}
		// INT8 with percentile calibration must not collapse accuracy.
		if precs["int8"].ErrorPct > precs["fp16"].ErrorPct+5 {
			t.Errorf("%s: int8 error %.1f%% vs fp16 %.1f%%", m, precs["int8"].ErrorPct, precs["fp16"].ErrorPct)
		}
	}
}

func TestBatchSweepAmortizes(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows, err := lab.BatchSweep("resnet18", []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].PerFrameMS >= rows[0].PerFrameMS {
		t.Fatal("batching should amortize per-frame cost")
	}
	if rows[1].LatencyMS <= rows[0].LatencyMS {
		t.Fatal("batch latency should exceed batch-1 latency")
	}
	if rows[1].SpeedupVsB1 <= 1 {
		t.Fatal("throughput speedup should exceed 1")
	}
}

func TestEnergyStudyNXMoreEfficient(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.EnergyStudy()
	byKey := map[string]EnergyRow{}
	for _, r := range rows {
		byKey[r.Model+"/"+r.Platform] = r
	}
	for _, m := range []string{"tiny-yolov3", "googlenet", "resnet18"} {
		nx, agx := byKey[m+"/NX"], byKey[m+"/AGX"]
		if nx.FPSPerWatt <= agx.FPSPerWatt {
			t.Errorf("%s: NX (10-20W part) should beat AGX on FPS/W: %.2f vs %.2f",
				m, nx.FPSPerWatt, agx.FPSPerWatt)
		}
		if agx.Threads <= nx.Threads {
			t.Errorf("%s: AGX should sustain more threads", m)
		}
	}
}

func TestClockSweepShowsEMCCoupling(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.ClockSweep("pednet")
	var nxBW, agxBW []float64
	for _, r := range rows {
		if r.Platform == "NX" {
			nxBW = append(nxBW, r.DRAMGBs)
		} else {
			agxBW = append(agxBW, r.DRAMGBs)
		}
	}
	for i := 1; i < len(nxBW); i++ {
		if nxBW[i] != nxBW[0] {
			t.Fatal("NX DRAM bandwidth must not follow the GPU clock")
		}
	}
	steps := 0
	for i := 1; i < len(agxBW); i++ {
		if agxBW[i] != agxBW[i-1] {
			steps++
		}
	}
	if steps < 2 {
		t.Fatalf("AGX EMC should step with power modes, saw %d steps", steps)
	}
	// At the paper's pinned clocks AGX must have LESS bandwidth than NX.
	for _, r := range rows {
		if r.Platform == "AGX" && r.ClockMHz == 624 && r.DRAMGBs >= 51.2 {
			t.Fatalf("AGX@624 bandwidth %.1f should be below NX's 51.2", r.DRAMGBs)
		}
	}
	// Latency must fall monotonically with clock on each platform.
	var prev float64 = 1e18
	for _, r := range rows {
		if r.Platform == "NX" {
			if r.LatencyMS >= prev {
				t.Fatal("NX latency not monotone in clock")
			}
			prev = r.LatencyMS
		}
	}
}

func TestDetectionStudy(t *testing.T) {
	lab := NewLab(tinyOpts())
	r := lab.DetectionStudy(10)
	if r.PrecisionAt50 < 60 || r.RecallAt50 < 50 {
		t.Fatalf("detection quality too low: P=%.0f R=%.0f", r.PrecisionAt50, r.RecallAt50)
	}
	if r.PrecisionAt75 > r.PrecisionAt50 {
		t.Fatal("precision cannot improve at a stricter IoU")
	}
	if r.ClassAccuracyPct < 80 {
		t.Fatalf("class accuracy %.0f%%", r.ClassAccuracyPct)
	}
	if r.CoverageCells == 0 {
		t.Fatal("no coverage cells compared")
	}
	if r.CoverageCellsDiffering == 0 {
		t.Fatal("two differently-tuned engines computed identical coverage everywhere")
	}
}

func TestThermalStudy(t *testing.T) {
	lab := NewLab(tinyOpts())
	rows := lab.ThermalStudy()
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var nx, agx ThermalRow
	for _, r := range rows {
		if r.Platform == "NX" {
			nx = r
		} else {
			agx = r
		}
	}
	if nx.TimeToThrottleS < 0 {
		t.Fatal("passively cooled NX should throttle in a 35C cabinet")
	}
	if nx.FPSDropPct <= 0 {
		t.Fatal("NX throttling should cost FPS")
	}
	if agx.TimeToThrottleS >= 0 && agx.FPSDropPct > nx.FPSDropPct {
		t.Fatal("fan-cooled AGX should fare better than NX")
	}
	if nx.PeakTempC < 60 || nx.PeakTempC > 110 {
		t.Fatalf("NX peak temp %.0fC implausible", nx.PeakTempC)
	}
}

func TestLatencyRenderersNonEmpty(t *testing.T) {
	lab := NewLab(tinyOpts())
	renders := map[string]func() string{
		"t8": lab.RenderTable8, "t9": lab.RenderTable9, "t10": lab.RenderTable10,
		"t11": lab.RenderTable11, "t12": lab.RenderTable12, "t13": lab.RenderTable13,
		"t17": lab.RenderTable17, "t18": lab.RenderTable18,
		"energy": lab.RenderEnergyStudy,
		"clock":  lab.RenderClockSweep, "thermal": lab.RenderThermalStudy,
	}
	for name, fn := range renders {
		out := fn()
		if len(out) < 80 {
			t.Errorf("%s render too short: %q", name, out)
		}
		if strings.Contains(out, "%!") {
			t.Errorf("%s has formatting errors", name)
		}
	}
	// Error-aware renderers (the extension studies).
	batch, err := lab.RenderBatchSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) < 80 {
		t.Errorf("batch render too short: %q", batch)
	}
	if strings.Contains(batch, "%!") {
		t.Errorf("batch render has formatting errors")
	}
}

func TestNumericRenderersNonEmpty(t *testing.T) {
	lab := NewLab(tinyOpts())
	for name, fn := range map[string]func() string{
		"t3": lab.RenderTable3, "t4": lab.RenderTable4,
		"t5": lab.RenderTable5, "t6": lab.RenderTable6,
		"detection": lab.RenderDetectionStudy,
	} {
		if len(fn()) < 80 {
			t.Errorf("%s render too short", name)
		}
	}
	precision, err := lab.RenderPrecisionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(precision) < 80 {
		t.Errorf("precision render too short")
	}
}

// labPrograms partitions the Lab's numeric proxy engines — every engine a
// table classified — into numeric programs by core.Engine.SameNumerics,
// independently of the Lab's own bookkeeping.
func labPrograms(l *Lab) (engines []*core.Engine, programs [][]*core.Engine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.engines))
	for k := range l.engines {
		if strings.HasPrefix(k, "proxy/") || strings.HasPrefix(k, "prec/") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
next:
	for _, k := range keys {
		e := l.engines[k]
		engines = append(engines, e)
		for i, p := range programs {
			if p[0].SameNumerics(e) {
				programs[i] = append(p, e)
				continue next
			}
		}
		programs = append(programs, []*core.Engine{e})
	}
	return engines, programs
}

// Tables IV, V and VI classify the same adversarial set, and V/VI reuse
// six of IV's engines (alexnet, resnet18, vgg16 × NX1/AGX1) plus each
// other's: 4 models × 3 builds × 2 platforms = 24 engines. Predictions
// are keyed by (numeric program, image set), so the cache holds one run
// per distinct program among those 24 — counted here with SameNumerics,
// not pinned — plus IV's three un-optimized references (engines of their
// own program), whichever table asks first and whatever engine, platform
// or build id it asks through. Keyed by engine it held 27.
func TestPredictionsKeyedByEngineAndSet(t *testing.T) {
	orders := [][]func(*Lab) string{
		{(*Lab).RenderTable4, (*Lab).RenderTable5, (*Lab).RenderTable6},
		{(*Lab).RenderTable6, (*Lab).RenderTable5, (*Lab).RenderTable4},
	}
	var first []string
	var firstRuns int
	for oi, order := range orders {
		l := NewLab(tinyOpts())
		out := make([]string, 3)
		for i, render := range order {
			out[i] = render(l)
		}
		if oi == 1 {
			out[0], out[2] = out[2], out[0]
		}
		engines, programs := labPrograms(l)
		if len(engines) != 24 {
			t.Fatalf("order %d: the tables built %d proxy engines, want 24", oi, len(engines))
		}
		want := len(programs) + len(classifierModels)
		if got := len(l.preds); got != want {
			t.Errorf("order %d: %d prediction runs cached, want %d (one per distinct program of %d, plus %d un-optimized models)",
				oi, got, want, len(programs), len(classifierModels))
		}
		if want >= 27 {
			t.Errorf("order %d: %d engines are %d distinct programs: program identity shares nothing", oi, len(engines), len(programs))
		}
		if len(l.programs) != want {
			t.Errorf("order %d: the Lab holds %d representatives for %d distinct programs and %d references", oi, len(l.programs), len(programs), len(classifierModels))
		}
		adv := l.advSet()
		for k := range l.preds {
			if k.first != adv[0].Image || k.n != len(adv) {
				t.Errorf("order %d: run keyed to %d images from %p, want the adversarial set", oi, k.n, k.first)
			}
			if !slices.Contains(l.programs, k.engine) {
				t.Errorf("order %d: run keyed to engine %s, which represents no program", oi, k.engine.Key())
			}
		}
		refs := 0
		for _, r := range l.refs {
			if _, ok := l.preds[predKey{r, adv[0].Image, len(adv)}]; ok {
				refs++
			}
		}
		if refs != len(classifierModels) {
			t.Errorf("order %d: %d runs keyed to a reference, want one per classifier model (%d)", oi, refs, len(classifierModels))
		}
		if got := len(l.proxies); got != 4 {
			t.Errorf("order %d: %d proxy graphs built, want one per model (4)", oi, got)
		}
		for _, render := range order { // a second reading computes nothing new
			render(l)
		}
		if got := len(l.preds); got != want {
			t.Errorf("order %d: re-rendering grew the cache to %d", oi, got)
		}
		if first == nil {
			first, firstRuns = out, want
		} else if !reflect.DeepEqual(out, first) {
			t.Error("table text depends on the order the tables were rendered in")
		} else if want != firstRuns {
			t.Errorf("%d runs in one render order, %d in the other", firstRuns, want)
		}
	}
}

// An engine the Lab answers through another's run must have computed
// exactly that had it run itself: every such proxy engine of Tables
// III–VI and the precision study is re-run, outside the cache, over each
// image set its program was classified on, and compared with what the
// Lab reports for it.
func TestProgramSharedPredictionsEqualOwnRun(t *testing.T) {
	l := NewLab(tinyOpts())
	l.RenderTable3()
	l.RenderTable4()
	l.RenderTable5()
	l.RenderTable6()
	if _, err := l.RenderPrecisionStudy(); err != nil {
		t.Fatal(err)
	}
	benign := make([]*tensor.Tensor, 0, len(l.benignSet()))
	for _, s := range l.benignSet() {
		benign = append(benign, s.Image)
	}
	engines, programs := labPrograms(l)
	if len(programs) >= len(engines) {
		t.Fatalf("%d engines, %d programs: nothing was shared", len(engines), len(programs))
	}
	shared, reruns := 0, 0
	stride := 1
	if testing.Short() {
		stride = 4 // every fourth image: the race detector makes Infer ≈ 15× slower
	}
	for _, e := range engines {
		if l.program(e) == e {
			continue
		}
		shared++
		for _, images := range [][]*tensor.Tensor{l.consistencyImages(), benign} {
			cached, ok := l.cachedPred(predKey{engine: l.program(e), first: images[0], n: len(images)})
			if !ok {
				continue
			}
			reruns++
			for i := 0; i < len(images); i += stride {
				o, err := e.Infer(images[i])
				if err != nil {
					t.Fatal(err)
				}
				if got := o[0].Argmax(); got != cached[i] {
					t.Fatalf("%s image %d: the Lab reports class %d through %s, its own run says %d",
						e.Key(), i, cached[i], l.program(e).Key(), got)
				}
			}
		}
	}
	if shared == 0 || reruns < shared {
		t.Fatalf("%d engines answered through a representative, %d runs repeated", shared, reruns)
	}
	t.Logf("%d engines, %d programs, %d answered through a representative, %d runs repeated", len(engines), len(programs), shared, reruns)
}
