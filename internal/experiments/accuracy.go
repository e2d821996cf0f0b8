package experiments

import (
	"fmt"

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
	out := make([]Table3Row, len(classifierModels))
	l.fanModels(len(classifierModels), func(mi int) {
		m := classifierModels[mi]
		agx := l.classify(l.proxyEngine(m, "AGX", 1), images)
		nx := l.classify(l.proxyEngine(m, "NX", 1), images)
		un := l.classifyUnopt(m, images)
		out[mi] = Table3Row{
			Model:      m,
			AGXError:   metrics.Top1Error(agx, labels),
			NXError:    metrics.Top1Error(nx, labels),
			UnoptError: metrics.Top1Error(un, labels),
		}
	})
	return out
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
	images := make([]*tensor.Tensor, len(set))
	labels := make([]int, len(set))
	for i, s := range set {
		images[i], labels[i] = s.Image, s.Label
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
	out := make([]Table4Row, len(classifierModels)*len(sevs))
	l.fanModels(len(classifierModels), func(mi int) {
		m := classifierModels[mi]
		agx := l.classify(l.proxyEngine(m, "AGX", 1), images)
		nx := l.classify(l.proxyEngine(m, "NX", 1), images)
		un := l.classifyUnopt(m, images)
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
	})
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
// (the paper uses the adversarial set's 60000 predictions).
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
	images := l.consistencyImages()
	n := l.Opts.EnginesPerSide
	if n > 3 {
		n = 3
	}
	out := make([]Table5Row, len(consistencyModels))
	l.fanModels(len(consistencyModels), func(mi int) {
		m := consistencyModels[mi]
		var row Table5Row
		row.Model = m
		row.Total = len(images)
		var nxPreds, agxPreds [3][]int
		for i := 0; i < n; i++ {
			nxPreds[i] = l.classify(l.proxyEngine(m, "NX", i+1), images)
			agxPreds[i] = l.classify(l.proxyEngine(m, "AGX", i+1), images)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				row.Mismatches[i][j] = metrics.Mismatches(nxPreds[i], agxPreds[j])
			}
		}
		out[mi] = row
	})
	return out
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
	images := l.consistencyImages()
	cases := []struct{ platform, model string }{
		{"NX", "resnet18"}, {"AGX", "vgg16"}, {"AGX", "inceptionv4"}, {"AGX", "resnet18"},
	}
	out := make([]Table6Row, len(cases))
	l.fanModels(len(cases), func(ci int) {
		c := cases[ci]
		var preds [3][]int
		for i := 0; i < 3; i++ {
			preds[i] = l.classify(l.proxyEngine(c.model, c.platform, i+1), images)
		}
		out[ci] = Table6Row{
			Platform: c.platform, Model: c.model,
			M12:   metrics.Mismatches(preds[0], preds[1]),
			M23:   metrics.Mismatches(preds[1], preds[2]),
			M13:   metrics.Mismatches(preds[0], preds[2]),
			Total: len(images),
		}
	})
	return out
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
