package frameworks

import (
	"testing"

	"edgeinfer/internal/models"
)

// FuzzImportCaffe mutates prototxt text: the parser must error or
// produce a finalized graph, never panic.
func FuzzImportCaffe(f *testing.F) {
	m, err := Export(models.MustBuild("alexnet"), Caffe)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(m.Arch))
	f.Add("layer {")
	f.Add(`layer { name: "x" type: "Convolution" bottom: "data" top: "x" }`)
	f.Add("")
	f.Fuzz(func(t *testing.T, arch string) {
		if len(arch) > 1<<20 {
			t.Skip()
		}
		g, err := Import(Model{Format: Caffe, Arch: []byte(arch)})
		if err == nil && !g.Finalized() {
			t.Fatal("unfinalized graph returned without error")
		}
	})
}

// FuzzImportDarknet mutates cfg text with the same contract.
func FuzzImportDarknet(f *testing.F) {
	m, err := Export(models.MustBuild("tiny-yolov3"), Darknet)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(m.Arch))
	f.Add("[net]\nbatch=1\n[convolutional]\nfilters=8\nsize=3\nstride=1\npad=1")
	f.Add("[route]\nlayers=-5")
	f.Fuzz(func(t *testing.T, arch string) {
		if len(arch) > 1<<20 {
			t.Skip()
		}
		g, err := Import(Model{Format: Darknet, Arch: []byte(arch)})
		if err == nil && !g.Finalized() {
			t.Fatal("unfinalized graph returned without error")
		}
	})
}

// FuzzImportJSON mutates the JSON node list under either dialect with
// the same contract. Any format string but "pytorch" selects TensorFlow,
// so every input reaches a parser.
func FuzzImportJSON(f *testing.F) {
	tf, err := Export(models.MustBuild("mobilenetv1"), TensorFlow)
	if err != nil {
		f.Fatal(err)
	}
	pt, err := Export(models.MustBuild("fcn-resnet18-cityscapes"), PyTorch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(TensorFlow), string(tf.Arch))
	f.Add(string(PyTorch), string(pt.Arch))
	f.Add(string(TensorFlow), "{broken")
	f.Add(string(PyTorch), "")
	f.Fuzz(func(t *testing.T, format, arch string) {
		if len(arch) > 1<<20 {
			t.Skip()
		}
		dialect := TensorFlow
		if Format(format) == PyTorch {
			dialect = PyTorch
		}
		g, err := Import(Model{Format: dialect, Arch: []byte(arch)})
		if err == nil && !g.Finalized() {
			t.Fatal("unfinalized graph returned without error")
		}
	})
}

// FuzzImportWeights mutates the binary weight payload of a real export
// under its own, fixed arch text — the half of Import the two arch
// fuzzers never reach: the importer must error or produce a finalized
// graph, never panic.
func FuzzImportWeights(f *testing.F) {
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		f.Fatal(err)
	}
	m, err := Export(g, PyTorch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.Weights)
	f.Add(m.Weights[:len(m.Weights)/2])
	f.Add(m.Weights[:4])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, weights []byte) {
		if len(weights) > 1<<20 {
			t.Skip()
		}
		g, err := Import(Model{Format: PyTorch, Arch: m.Arch, Weights: weights})
		if err == nil && !g.Finalized() {
			t.Fatal("unfinalized graph returned without error")
		}
	})
}
