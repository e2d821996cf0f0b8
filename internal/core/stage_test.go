package core

import (
	"slices"
	"testing"
)

// Every blessed cut must be a genuine single-tensor boundary: no layer
// before the boundary may feed a layer after the cut, and no graph
// output may sit in the front half.
func TestStageCutsAreSingleTensorBoundaries(t *testing.T) {
	e, err := Build(tinyNet(t), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	g := e.Graph
	cuts := e.StageCuts()
	if len(cuts) == 0 {
		t.Fatal("tinynet has no valid cuts; expected at least the pre-FC boundary")
	}
	idx := map[string]int{}
	for i, l := range g.Layers {
		idx[l.Name] = i
	}
	for _, c := range cuts {
		if c < 1 || c >= len(g.Layers) {
			t.Fatalf("cut %d out of range (plan has %d layers)", c, len(g.Layers))
		}
		for i, l := range g.Layers[:c-1] {
			for _, consumer := range g.Layers {
				if slices.Contains(consumer.Inputs, l.Name) && idx[consumer.Name] >= c {
					t.Errorf("cut %d: layer %d (%s) feeds %s across the boundary", c, i, l.Name, consumer.Name)
				}
			}
		}
		for _, o := range g.Outputs {
			if idx[o] < c-1 {
				t.Errorf("cut %d strands output %s in the front half", c, o)
			}
		}
	}
	// The skip region must be closed: relu1 feeds both projections, so no
	// cut may fall between proj1 and proj2.
	p1, ok1 := idx["proj1"]
	p2, ok2 := idx["proj2"]
	if ok1 && ok2 {
		lo, hi := p1, p2
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, c := range cuts {
			if c > lo+1 && c <= hi {
				t.Errorf("cut %d falls inside the relu1 fan-out region (%d..%d)", c, lo, hi)
			}
		}
	}
}
