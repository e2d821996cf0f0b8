package experiments

import (
	"fmt"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/detect"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/models"
)

// Extension experiment: detection quality and consistency. The paper
// defines IoU-based precision/recall at 0.75 as its detection metric
// (§II-E) and warns that "obstacles may or may not be detected" across
// engine rebuilds (Table XVI) but publishes no detection-accuracy table;
// this experiment supplies both, end to end through built engines.

// DetectionResult summarizes the study.
type DetectionResult struct {
	Scenes           int
	PrecisionAt50    float64
	RecallAt50       float64
	PrecisionAt75    float64
	RecallAt75       float64
	ClassAccuracyPct float64
	// ScenesDiffering counts dusk scenes where two engines built from
	// the same detector produce different detection sets.
	ScenesDiffering int
	DuskScenes      int
	EnginesCompared int
	// CoverageCellsDiffering counts coverage cells where the two engines
	// compute numerically different values (the raw non-determinism the
	// box decoder may or may not absorb).
	CoverageCellsDiffering int
	CoverageCells          int
}

// DetectionStudy runs the detection proxy over synthetic traffic scenes
// through two independently built engines.
func (l *Lab) DetectionStudy(scenes int) DetectionResult {
	cfg := dataset.DefaultScenes()
	g, err := buildDetector(cfg.HW)
	if err != nil {
		panic(err)
	}
	mk := func(platform string, build int) *core.Engine {
		bc := core.DefaultConfig(platformSpec(platform), build)
		bc.PruneFrac = 0 // uniform matched filter: pruning would gut it
		e, err := core.Build(g, bc)
		if err != nil {
			panic(err)
		}
		return e
	}
	// Find two engines whose tactic selections differ (the tuner's
	// non-determinism guarantees such pairs exist among a handful of
	// builds; which builds differ varies with the model).
	e1 := mk("NX", 1)
	e2 := mk("AGX", 1)
	// The head convolution's reduction (72 channels) is deep enough for
	// tile choices to change accumulation order; scan builds until the
	// two engines disagree in a numerics-relevant way (reduction tiling,
	// split-K or family — TileM/TileN only move work around).
	numericsDiffer := func() bool {
		a, b := e1.Choices["coverage_conv"], e2.Choices["coverage_conv"]
		return a.TileK != b.TileK || a.SplitK != b.SplitK || a.Family != b.Family
	}
	for b := 2; b <= 12 && !numericsDiffer(); b++ {
		e2 = mk("AGX", b)
	}

	res := DetectionResult{Scenes: scenes, EnginesCompared: 2}
	// Consistency is probed on low-contrast dusk scenes, where coverage
	// sits near the decision threshold; flips are ~0.1% of cells, so the
	// probe uses a larger scene count than the accuracy pass.
	duskCfg := cfg
	duskCfg.Dusk = true
	res.DuskScenes = 4 * scenes
	for i := 0; i < res.DuskScenes; i++ {
		dusk := dataset.Generate(duskCfg, i)
		o1, err := e1.Infer(dusk.Image)
		if err != nil {
			panic(err)
		}
		o2, err := e2.Infer(dusk.Image)
		if err != nil {
			panic(err)
		}
		for k := range o1[0].Data {
			res.CoverageCells++
			if o1[0].Data[k] != o2[0].Data[k] {
				res.CoverageCellsDiffering++
			}
		}
		d1 := detect.NMS(detect.DecodeRegions(o1[0], models.DetectorStride, 0.5), 0.4)
		d2 := detect.NMS(detect.DecodeRegions(o2[0], models.DetectorStride, 0.5), 0.4)
		if !detect.SameDetections(d1, d2) {
			res.ScenesDiffering++
		}
	}
	var tp50, fp50, fn50, tp75, fp75, fn75 int
	var clsOK, clsTotal int
	for i := 0; i < scenes; i++ {
		scene := dataset.Generate(cfg, i)
		d1 := detectScene(e1, scene)
		var truth []metrics.Rect
		for _, b := range scene.Truth {
			truth = append(truth, metrics.Rect{X: b.X, Y: b.Y, W: b.W, H: b.H})
		}
		a, b, c := detect.Match(d1, truth, 0.5)
		tp50, fp50, fn50 = tp50+a, fp50+b, fn50+c
		a, b, c = detect.Match(d1, truth, 0.75)
		tp75, fp75, fn75 = tp75+a, fp75+b, fn75+c
		// class assignment against matched truth boxes
		for _, t := range scene.Truth {
			clsTotal++
			if classifyAt(scene, t) == t.Class {
				clsOK++
			}
		}
	}
	res.PrecisionAt50, res.RecallAt50 = detect.PrecisionRecall(tp50, fp50, fn50)
	res.PrecisionAt75, res.RecallAt75 = detect.PrecisionRecall(tp75, fp75, fn75)
	if clsTotal > 0 {
		res.ClassAccuracyPct = 100 * float64(clsOK) / float64(clsTotal)
	}
	return res
}

// RenderDetectionStudy formats the extension experiment.
func (l *Lab) RenderDetectionStudy() string {
	r := l.DetectionStudy(40)
	return fmt.Sprintf(`Extension: detection quality and engine consistency (%d traffic scenes)
precision/recall @ IoU 0.50: %.1f%% / %.1f%%
precision/recall @ IoU 0.75: %.1f%% / %.1f%%  (the paper's reporting threshold)
vehicle class accuracy:      %.1f%%
coverage cells computed differently by two engines of the same detector: %d/%d (%.2f%%)
dusk scenes where the decoded detection sets differ: %d/%d
(numeric disagreement is pervasive; whether it crosses the decode threshold
 depends on scene content — the paper's Tables V-VI see 0.1-0.8%% label flips)
`, r.Scenes, r.PrecisionAt50, r.RecallAt50, r.PrecisionAt75, r.RecallAt75,
		r.ClassAccuracyPct,
		r.CoverageCellsDiffering, r.CoverageCells,
		100*float64(r.CoverageCellsDiffering)/float64(max(r.CoverageCells, 1)),
		r.ScenesDiffering, r.DuskScenes)
}

// buildDetector constructs the scene-scale detection proxy.
func buildDetector(hw int) (*graph.Graph, error) {
	return models.BuildDetectorProxy("detector-proxy", hw)
}

// detectScene runs one scene through an engine and decodes detections.
func detectScene(e *core.Engine, scene dataset.Scene) []detect.Detection {
	outs, err := e.Infer(scene.Image)
	if err != nil {
		panic(err)
	}
	return detect.NMS(detect.DecodeRegions(outs[0], models.DetectorStride, 0.5), 0.4)
}

// classifyAt assigns a class to a truth box by intensity.
func classifyAt(scene dataset.Scene, b dataset.Box) dataset.VehicleClass {
	return models.ClassifyBoxIntensity(scene.Image, b.X, b.Y, b.W, b.H)
}
