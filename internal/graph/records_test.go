package graph

import (
	"bytes"
	"strings"
	"testing"

	"edgeinfer/internal/framed"
)

// A graph survives the trip through its record vocabulary — layers via
// FromRecords, weights via the weight-section codec and AttachWeight —
// and the walk is ordered: layers as stored, each layer's keys sorted.
func TestRecordsRoundTrip(t *testing.T) {
	g := branchNet()
	materialize(g)
	g.Layer("stem").Weights["absent"] = nil // nil entries are skipped
	layers, weights := g.Records()
	if len(layers) != len(g.Layers)-1 {
		t.Fatalf("%d layer records for %d layers", len(layers), len(g.Layers))
	}
	for i := 1; i < len(weights); i++ {
		a, b := weights[i-1], weights[i]
		if a.Layer == b.Layer && a.Key >= b.Key {
			t.Fatalf("keys of %s out of order: %s before %s", a.Layer, a.Key, b.Key)
		}
	}

	var buf bytes.Buffer
	fw := framed.NewWriter(&buf)
	if err := WriteWeights(fw, weights); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := FromRecords(g.Name, g.InputShape, layers)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadWeights(framed.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(weights) {
		t.Fatalf("%d weights decoded, want %d", len(decoded), len(weights))
	}
	for _, w := range decoded {
		if err := back.AttachWeight(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := back.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, l := range g.Layers {
		bl := back.Layer(l.Name)
		if bl == nil || bl.Op != l.Op || bl.OutShape != l.OutShape {
			t.Fatalf("layer %s did not survive: %+v", l.Name, bl)
		}
		for key, w := range l.Weights {
			if w == nil {
				continue
			}
			bw := bl.Weights[key]
			if bw == nil || !bw.SameShape(w) || len(bw.Data) != len(w.Data) {
				t.Fatalf("weight %s/%s did not survive", l.Name, key)
			}
			for i := range w.Data {
				if bw.Data[i] != w.Data[i] {
					t.Fatalf("weight %s/%s differs at %d", l.Name, key, i)
				}
			}
		}
	}
}

func TestRecordsRejectMalformed(t *testing.T) {
	ok := [4]int{1, 3, 8, 8}
	conv := LayerRecord{Name: "c", Op: OpConv, Inputs: []string{"data"}}
	for name, tc := range map[string]struct {
		shape  [4]int
		layers []LayerRecord
		want   string
	}{
		"zero input dim":  {[4]int{0, 3, 8, 8}, nil, "input shape"},
		"giant input":     {[4]int{1 << 20, 1 << 20, 1, 1}, nil, "input shape"},
		"second input":    {ok, []LayerRecord{{Name: "data2", Op: OpInput}}, "redeclares the input"},
		"duplicate layer": {ok, []LayerRecord{conv, conv}, "duplicate"},
		"unknown input":   {ok, []LayerRecord{{Name: "c", Op: OpConv, Inputs: []string{"nope"}}}, "unknown input"},
		"no inputs":       {ok, []LayerRecord{{Name: "c", Op: OpConv}}, "no inputs"},
		"empty name":      {ok, []LayerRecord{{Op: OpConv, Inputs: []string{"data"}}}, "empty name"},
	} {
		if _, err := FromRecords("m", tc.shape, tc.layers); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, tc.want)
		}
	}

	g, err := FromRecords("m", ok, []LayerRecord{conv})
	if err != nil {
		t.Fatal(err)
	}
	one := WeightRecord{Key: "w", Shape: [4]int{1, 1, 1, 1}, Data: []float32{1}}
	one.Layer = "ghost"
	if err := g.AttachWeight(one); err == nil || !strings.Contains(err.Error(), "unknown layer") {
		t.Errorf("weight for an unknown layer: %v", err)
	}
	one.Layer = "data" // the input layer holds no weight map
	if err := g.AttachWeight(one); err == nil || !strings.Contains(err.Error(), "input layer") {
		t.Errorf("weight for the input layer: %v", err)
	}
	one.Layer = "c"
	if err := g.AttachWeight(one); err != nil || g.Layer("c").Weights["w"].Len() != 1 {
		t.Errorf("weight for a real layer: %v", err)
	}
}
