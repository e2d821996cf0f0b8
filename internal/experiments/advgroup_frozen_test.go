package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/tensor"
)

// frozenTable4, frozenTable5 and frozenTable6 are Tables IV, V and VI as
// they were when each classified only its own engines, one group per
// table, and built nothing else.
func frozenTable4(l *Lab) []Table4Row {
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
	preds := l.classifyAll(l.accuracyEngines(), images)
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

func frozenTable5(l *Lab) []Table5Row {
	images := l.consistencyImages()
	n := min(l.Opts.EnginesPerSide, 3)
	preds := l.classifyAll(l.crossPlatformEngines(n), images)
	out := make([]Table5Row, len(consistencyModels))
	for mi, m := range consistencyModels {
		row := Table5Row{Model: m, Total: len(images)}
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

func frozenTable6(l *Lab) []Table6Row {
	images := l.consistencyImages()
	cases := []struct{ platform, model string }{
		{"NX", "resnet18"}, {"AGX", "vgg16"}, {"AGX", "inceptionv4"}, {"AGX", "resnet18"},
	}
	var es []*core.Engine
	for _, c := range cases {
		for i := 1; i <= 3; i++ {
			es = append(es, l.proxyEngine(c.model, c.platform, i))
		}
	}
	preds := l.classifyAll(es, images)
	out := make([]Table6Row, len(cases))
	for ci, c := range cases {
		p := preds[3*ci : 3*ci+3]
		out[ci] = Table6Row{
			Platform: c.platform, Model: c.model,
			M12:   metrics.Mismatches(p[0], p[1]),
			M23:   metrics.Mismatches(p[1], p[2]),
			M13:   metrics.Mismatches(p[0], p[2]),
			Total: len(images),
		}
	}
	return out
}

// TestAdvGroupMatchesFrozenTables holds Tables IV, V and VI, which now
// classify the adversarial set through one group over all their engines,
// to the frozen tables that each classified only their own: every table
// rendered alone on a fresh Lab, and III to VI in order on one Lab, with
// one and three engines per side. Every build is cold: a Lab has no
// timing cache, and the subtest names say so. Under the race detector,
// which makes inference ≈ 15× slower, only the default three engines per
// side run.
func TestAdvGroupMatchesFrozenTables(t *testing.T) {
	type rows struct {
		t3 []Table3Row
		t4 []Table4Row
		t5 []Table5Row
		t6 []Table6Row
	}
	frozen := func(l *Lab, tables []int) (r rows) {
		for _, n := range tables {
			switch n {
			case 3:
				r.t3 = l.Table3()
			case 4:
				r.t4 = frozenTable4(l)
			case 5:
				r.t5 = frozenTable5(l)
			case 6:
				r.t6 = frozenTable6(l)
			}
		}
		return r
	}
	grouped := func(l *Lab, tables []int) (r rows) {
		for _, n := range tables {
			switch n {
			case 3:
				r.t3 = l.Table3()
			case 4:
				r.t4 = l.Table4()
			case 5:
				r.t5 = l.Table5()
			case 6:
				r.t6 = l.Table6()
			}
		}
		return r
	}
	renders := [][]int{{4}, {5}, {6}, {3, 4, 5, 6}}
	for _, perSide := range []int{1, 3} {
		if raceEnabled && perSide != Default().EnginesPerSide {
			continue
		}
		for _, tables := range renders {
			name := fmt.Sprintf("side%d/cache=false/tables%v", perSide, tables)
			t.Run(name, func(t *testing.T) {
				lab := func() *Lab {
					return NewLab(Options{
						BenignPerClass: 1,
						AdvPerClass:    1,
						AdvTypes:       []dataset.Corruption{dataset.GaussianNoise},
						Runs:           2,
						EnginesPerSide: perSide,
					})
				}
				want := frozen(lab(), tables)
				got := grouped(lab(), tables)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rows differ from the per-table groups:\n%+v\nwant\n%+v", got, want)
				}
			})
		}
	}
}
