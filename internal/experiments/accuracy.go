package experiments

import (
	"fmt"
	"slices"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/tensor"
)

// classifierModels are the networks of the paper's accuracy tables.
var classifierModels = []string{"alexnet", "resnet18", "vgg16"}

// consistencyModels are the networks of Table V.
var consistencyModels = []string{"resnet18", "vgg16", "inceptionv4", "alexnet"}

// Table3Row is one row of Table III: benign top-1 error.
type Table3Row struct {
	Model                         string
	AGXError, NXError, UnoptError float64
}

// Table3 reproduces Table III: top-1 error on the benign dataset for
// TensorRT engines (built on AGX and NX) vs the un-optimized model.
func (l *Lab) Table3() []Table3Row {
	set := l.benignSet()
	images := make([]*tensor.Tensor, len(set))
	labels := make([]int, len(set))
	for i, s := range set {
		images[i], labels[i] = s.Image, s.Label
	}
	preds := l.classifyAll(l.accuracyEngines(), images)
	out := make([]Table3Row, len(classifierModels))
	for mi, m := range classifierModels {
		agx, nx, un := preds[3*mi], preds[3*mi+1], preds[3*mi+2]
		out[mi] = Table3Row{
			Model:      m,
			AGXError:   metrics.Top1Error(agx, labels),
			NXError:    metrics.Top1Error(nx, labels),
			UnoptError: metrics.Top1Error(un, labels),
		}
	}
	return out
}

// accuracyEngines are the engines Tables III and IV classify through,
// three per classifier model: built on AGX, built on NX (build 1), and
// the un-optimized reference.
func (l *Lab) accuracyEngines() []*core.Engine {
	var es []*core.Engine
	for _, m := range classifierModels {
		es = append(es, l.proxyEngine(m, "AGX", 1), l.proxyEngine(m, "NX", 1), l.reference(m))
	}
	return es
}

// RenderTable3 formats Table III in the paper's layout.
func (l *Lab) RenderTable3() string {
	t := &table{
		title:  "Table III: Top-1 Error(%) on benign dataset (TensorRT vs un-optimized)",
		header: []string{"NN Model", "AGX Error(%) TRT", "NX Error(%) TRT", "Error(%) Unopt"},
	}
	for _, r := range l.Table3() {
		t.add(r.Model, f2(r.AGXError), f2(r.NXError), f2(r.UnoptError))
	}
	return t.String()
}

// Table4Row is one row of Table IV: adversarial top-1 error by severity.
type Table4Row struct {
	Model                         string
	Severity                      int
	AGXError, NXError, UnoptError float64
}

// Table4 reproduces Table IV: top-1 error on the corrupted dataset at
// severities 1 and 5.
func (l *Lab) Table4() []Table4Row {
	set := l.advSet()
	bySev := map[int][]int{} // severity -> sample indices
	labels := make([]int, len(set))
	for i, s := range set {
		labels[i] = s.Label
		bySev[s.Severity] = append(bySev[s.Severity], i)
	}
	sub := func(pred []int, idx []int) ([]int, []int) {
		p := make([]int, len(idx))
		lb := make([]int, len(idx))
		for j, i := range idx {
			p[j], lb[j] = pred[i], labels[i]
		}
		return p, lb
	}
	sevs := []int{1, 5}
	preds := l.classifyAdv(l.accuracyEngines())
	out := make([]Table4Row, len(classifierModels)*len(sevs))
	for mi, m := range classifierModels {
		agx, nx, un := preds[3*mi], preds[3*mi+1], preds[3*mi+2]
		for si, sev := range sevs {
			idx := bySev[sev]
			pa, la := sub(agx, idx)
			pn, ln := sub(nx, idx)
			pu, lu := sub(un, idx)
			out[mi*len(sevs)+si] = Table4Row{
				Model: m, Severity: sev,
				AGXError:   metrics.Top1Error(pa, la),
				NXError:    metrics.Top1Error(pn, ln),
				UnoptError: metrics.Top1Error(pu, lu),
			}
		}
	}
	return out
}

// RenderTable4 formats Table IV.
func (l *Lab) RenderTable4() string {
	t := &table{
		title:  "Table IV: Top-1 Error(%) on adversarial dataset (severity 1 and 5)",
		header: []string{"NN Model", "Severity", "AGX Error(%) TRT", "NX Error(%) TRT", "Error(%) Unopt"},
	}
	for _, r := range l.Table4() {
		t.add(r.Model, fmt.Sprintf("%d", r.Severity), f2(r.AGXError), f2(r.NXError), f2(r.UnoptError))
	}
	return t.String()
}

// consistencyImages returns the image set used by the consistency tables
// (the paper uses the adversarial set's 60000 predictions) and Table IV.
func (l *Lab) consistencyImages() []*tensor.Tensor {
	set := l.advSet()
	images := make([]*tensor.Tensor, len(set))
	for i, s := range set {
		images[i] = s.Image
	}
	return images
}

// Table5Row is one model's cross-platform mismatch counts (NXi vs AGXj).
type Table5Row struct {
	Model      string
	Mismatches [3][3]int // [nx engine i][agx engine j]
	Total      int
}

// Table5 reproduces Table V: number of differing predictions between
// engines built on NX and engines built on AGX, over the adversarial set.
func (l *Lab) Table5() []Table5Row {
	n := l.crossPlatformBuilds()
	preds := l.classifyAdv(l.crossPlatformEngines(n))
	total := len(l.advSet())
	out := make([]Table5Row, len(consistencyModels))
	for mi, m := range consistencyModels {
		row := Table5Row{Model: m, Total: total}
		nx := func(i int) []int { return preds[(mi*n+i)*2] }
		agx := func(j int) []int { return preds[(mi*n+j)*2+1] }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				row.Mismatches[i][j] = metrics.Mismatches(nx(i), agx(j))
			}
		}
		out[mi] = row
	}
	return out
}

// crossPlatformBuilds is how many builds per platform Table V compares.
func (l *Lab) crossPlatformBuilds() int { return min(l.Opts.EnginesPerSide, 3) }

// crossPlatformEngines are Table V's engines: per consistency model and
// build id 1..n, the engine built on NX, then the one built on AGX.
func (l *Lab) crossPlatformEngines(n int) []*core.Engine {
	var es []*core.Engine
	for _, m := range consistencyModels {
		for i := 1; i <= n; i++ {
			es = append(es, l.proxyEngine(m, "NX", i), l.proxyEngine(m, "AGX", i))
		}
	}
	return es
}

// RenderTable5 formats Table V.
func (l *Lab) RenderTable5() string {
	t := &table{
		title: "Table V: differing predictions across cross-platform engine pairs",
		header: []string{"NN Model", "NX1-AGX1", "NX1-AGX2", "NX1-AGX3",
			"NX2-AGX1", "NX2-AGX2", "NX2-AGX3", "NX3-AGX1", "NX3-AGX2", "NX3-AGX3", "of"},
	}
	for _, r := range l.Table5() {
		cells := []string{r.Model}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				cells = append(cells, fmt.Sprintf("%d", r.Mismatches[i][j]))
			}
		}
		cells = append(cells, fmt.Sprintf("%d", r.Total))
		t.add(cells...)
	}
	return t.String()
}

// Table6Row is one platform-specific engine-pair mismatch record.
type Table6Row struct {
	Platform string
	Model    string
	M12      int
	M23      int
	M13      int
	Total    int
}

// Table6 reproduces Table VI: mismatches across engines built on the
// same platform.
func (l *Lab) Table6() []Table6Row {
	preds := l.classifyAdv(l.samePlatformEngines())
	total := len(l.advSet())
	out := make([]Table6Row, len(samePlatformCases))
	for ci, c := range samePlatformCases {
		p := preds[3*ci : 3*ci+3]
		out[ci] = Table6Row{
			Platform: c.platform, Model: c.model,
			M12:   metrics.Mismatches(p[0], p[1]),
			M23:   metrics.Mismatches(p[1], p[2]),
			M13:   metrics.Mismatches(p[0], p[2]),
			Total: total,
		}
	}
	return out
}

// samePlatformCases are Table VI's rows: a platform and a model.
var samePlatformCases = []struct{ platform, model string }{
	{"NX", "resnet18"}, {"AGX", "vgg16"}, {"AGX", "inceptionv4"}, {"AGX", "resnet18"},
}

// samePlatformEngines are Table VI's engines: per row, builds 1, 2 and 3.
func (l *Lab) samePlatformEngines() []*core.Engine {
	var es []*core.Engine
	for _, c := range samePlatformCases {
		for i := 1; i <= 3; i++ {
			es = append(es, l.proxyEngine(c.model, c.platform, i))
		}
	}
	return es
}

// classifyAdv returns, by the index of own, the predictions of one of
// Tables IV, V and VI's engine lists over the adversarial set. The
// three tables read that set through one group, over advEngines(own).
// Whichever table comes first runs it, and the others find every
// program cached.
func (l *Lab) classifyAdv(own []*core.Engine) [][]int {
	return l.classifyAll(l.advEngines(own), l.consistencyImages())[:len(own)]
}

// advEngines returns own, then every engine of Tables IV, V and VI in
// that order (classifyAll runs each program once). A table rendered
// alone builds its own engines first and the others after. The order
// sets the group's members and fork points, which TestTableGroupsPinned
// pins.
func (l *Lab) advEngines(own []*core.Engine) []*core.Engine {
	return slices.Concat(own, l.accuracyEngines(), l.crossPlatformEngines(l.crossPlatformBuilds()), l.samePlatformEngines())
}

// RenderTable6 formats Table VI.
func (l *Lab) RenderTable6() string {
	t := &table{
		title:  "Table VI: differing predictions across engines on the same platform",
		header: []string{"Platform", "NN Model", "Engines 1-2", "Engines 2-3", "Engines 1-3", "of"},
	}
	for _, r := range l.Table6() {
		t.add(r.Platform, r.Model, fmt.Sprintf("%d", r.M12), fmt.Sprintf("%d", r.M23),
			fmt.Sprintf("%d", r.M13), fmt.Sprintf("%d", r.Total))
	}
	return t.String()
}

var _ = dataset.NumClasses
