package frameworks

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/framed"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// sameGraph requires an import to carry everything its source did: the
// graph-level header, and every layer record field by field — a codec
// that drops one parameter (an LRN beta, a conv's groups) fails here
// even when the output shapes still agree.
func sameGraph(t *testing.T, label string, a, b *graph.Graph) {
	t.Helper()
	if a.Name != b.Name || a.Task != b.Task || a.InputShape != b.InputShape ||
		!reflect.DeepEqual(a.Outputs, b.Outputs) {
		t.Errorf("%s: header %q/%q/%v/%v vs %q/%q/%v/%v", label,
			a.Name, a.Task, a.InputShape, a.Outputs, b.Name, b.Task, b.InputShape, b.Outputs)
	}
	ra, _ := a.Records()
	rb, _ := b.Records()
	if len(ra) != len(rb) {
		t.Errorf("%s: %d layer records vs %d", label, len(ra), len(rb))
		return
	}
	for i := range ra {
		if !reflect.DeepEqual(ra[i], rb[i]) {
			t.Errorf("%s: record %d: %+v vs %+v", label, i, ra[i], rb[i])
			return
		}
	}
}

// rareOps is a graph built from the ops no zoo model uses, so the round
// trip covers every op each format can express.
func rareOps(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("rare-ops", [4]int{1, 3, 16, 16})
	b.Conv("conv", 8, 3, 1, 1).Scale("scale").GlobalAvgPool("gap").Flatten("flat").FC("fc", 10)
	b.G.Task = "classification"
	b.G.Outputs = []string{"fc"}
	if err := b.G.Finalize(); err != nil {
		t.Fatal(err)
	}
	return b.G
}

func TestRoundTripAllFormatsAllModels(t *testing.T) {
	formats := []Format{Caffe, TensorFlow, Darknet, PyTorch}
	graphs := []*graph.Graph{rareOps(t)}
	for _, name := range models.List() {
		graphs = append(graphs, models.MustBuild(name))
	}
	for _, g := range graphs {
		for _, f := range formats {
			label := g.Name + " -> " + string(f)
			m, err := Export(g, f)
			if err != nil {
				t.Errorf("%s: export: %v", label, err)
				continue
			}
			back, err := Import(m)
			if err != nil {
				t.Errorf("%s: import: %v", label, err)
				continue
			}
			sameGraph(t, label, g, back)
			if back.TotalParams() != g.TotalParams() {
				t.Errorf("%s: params %d vs %d", label, back.TotalParams(), g.TotalParams())
			}
		}
	}
}

func TestNativeFormat(t *testing.T) {
	cases := map[string]Format{
		"alexnet": Caffe, "tiny-yolov3": Darknet,
		"mobilenetv1": TensorFlow, "fcn-resnet18-cityscapes": PyTorch,
	}
	for name, want := range cases {
		g := models.MustBuild(name)
		if got := Native(g); got != want {
			t.Errorf("%s native format %s, want %s", name, got, want)
		}
	}
}

func TestWeightsSurviveRoundTrip(t *testing.T) {
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{Caffe, TensorFlow, Darknet, PyTorch} {
		m, err := Export(g, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(m.Weights) == 0 {
			t.Fatalf("%s: no weights serialized", f)
		}
		back, err := Import(m)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// Numeric equivalence on a real image.
		img := dataset.Benign(dataset.BenignConfig{Seed: "rt", Classes: 2, PerClass: 1, NoiseSigma: 1})[0].Image
		o1, err := g.Execute(img)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := back.Execute(img)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for i := range o1[0].Data {
			if o1[0].Data[i] != o2[0].Data[i] {
				t.Fatalf("%s: outputs differ after round trip", f)
			}
		}
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	for _, f := range []Format{Caffe, TensorFlow, Darknet, PyTorch} {
		if _, err := Import(Model{Format: f, Arch: []byte("{broken")}); err == nil {
			// caffe/darknet text parsers may tolerate noise but must fail
			// to finalize a usable graph
			t.Errorf("%s: garbage arch accepted", f)
		}
	}
	if _, err := Import(Model{Format: "onnx"}); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := Export(models.MustBuild("alexnet"), "onnx"); err == nil {
		t.Fatal("unknown export format accepted")
	}
}

func TestCaffeProtoTxtLooksRight(t *testing.T) {
	g := models.MustBuild("alexnet")
	m, err := Export(g, Caffe)
	if err != nil {
		t.Fatal(err)
	}
	txt := string(m.Arch)
	for _, want := range []string{`type: "Convolution"`, `type: "LRN"`, "num_output: 96", "group: 2"} {
		if !contains(txt, want) {
			t.Errorf("prototxt missing %q", want)
		}
	}
}

func TestDarknetCfgLooksRight(t *testing.T) {
	g := models.MustBuild("tiny-yolov3")
	m, err := Export(g, Darknet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := string(m.Arch)
	for _, want := range []string{"[net]", "[convolutional]", "[maxpool]", "[route]", "[upsample]", "filters=255"} {
		if !contains(cfg, want) {
			t.Errorf("cfg missing %q", want)
		}
	}
}

func TestCorruptWeightPayloadRejected(t *testing.T) {
	g, _ := models.BuildProxy("vgg16", models.DefaultProxyOptions())
	m, err := Export(g, TensorFlow)
	if err != nil {
		t.Fatal(err)
	}
	m.Weights = m.Weights[:len(m.Weights)/2]
	if _, err := Import(m); err == nil {
		t.Fatal("truncated weights accepted")
	}
	short := Model{Format: TensorFlow, Arch: m.Arch, Weights: []byte{1, 2}}
	if _, err := Import(short); err == nil {
		t.Fatal("tiny weight payload accepted")
	}
	// A record for the input layer, which holds no weights: an error from
	// the shared attach step, not a nil-map panic behind Import's recover.
	var payload bytes.Buffer
	fw := framed.NewWriter(&payload)
	forData := graph.WeightRecord{Layer: "data", Key: "w", Shape: [4]int{1, 1, 1, 1}, Data: []float32{0}}
	if err := graph.WriteWeights(fw, []graph.WeightRecord{forData}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = Import(Model{Format: TensorFlow, Arch: m.Arch, Weights: payload.Bytes()})
	if err == nil || !strings.Contains(err.Error(), "input layer") {
		t.Fatalf("weight for the input layer: %v", err)
	}
}

// TestExportByteStable: one graph always exports to the same bytes —
// the weights are walked in sorted order, never in map order.
func TestExportByteStable(t *testing.T) {
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{Caffe, TensorFlow, Darknet, PyTorch} {
		first, err := Export(g, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for i := 1; i < 50; i++ {
			m, err := Export(g, f)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if !bytes.Equal(m.Arch, first.Arch) || !bytes.Equal(m.Weights, first.Weights) {
				t.Fatalf("%s: export %d differs from the first", f, i)
			}
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

var _ = tensor.FP32 // keep the import for future weight-precision tests
