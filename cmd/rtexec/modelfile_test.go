package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"edgeinfer/internal/frameworks"
	"edgeinfer/internal/models"
)

func TestModelFileRoundTrip(t *testing.T) {
	g := models.MustBuild("tiny-yolov3")
	m, err := frameworks.Export(g, frameworks.Darknet)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ty.model")
	if err := writeModel(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := readModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Format != frameworks.Darknet {
		t.Fatalf("format %q", back.Format)
	}
	if string(back.Arch) != string(m.Arch) {
		t.Fatal("arch lost")
	}
	if len(back.Weights) != len(m.Weights) {
		t.Fatal("weights lost")
	}
	// And it imports back into a graph.
	g2, err := frameworks.Import(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Layers) != len(g.Layers) {
		t.Fatalf("layers %d vs %d", len(g2.Layers), len(g.Layers))
	}
}

func TestReadModelRejectsCorruption(t *testing.T) {
	g := models.MustBuild("mtcnn")
	m, err := frameworks.Export(g, frameworks.Caffe)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.model")
	if err := writeModel(path, m); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// wrong magic
	if _, err := readModel([]byte("NOTMAGIC" + string(data[8:]))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// truncations at several prefixes must error, never panic
	for _, n := range []int{0, 4, 8, 10, 20, len(data) / 2, len(data) - 1} {
		if n > len(data) {
			continue
		}
		if _, err := readModel(data[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

// TestFormatBytesPinned holds the EDGEMDL1 container to the bytes it had
// before its codec moved onto the shared framing layer; the digest was
// captured at the commit preceding that refactor (the repo-root test of
// the same name pins the three magic-tagged formats).
func TestFormatBytesPinned(t *testing.T) {
	m := frameworks.Model{
		Format:  frameworks.Darknet,
		Arch:    []byte("[net]\nbatch=1\nchannels=3\nheight=8\nwidth=8\n\n[convolutional]\n# name=c1\nfilters=4\nsize=3\nstride=1\npad=1\n"),
		Weights: []byte{0, 1, 2, 3, 0xfe, 0xff},
	}
	path := filepath.Join(t.TempDir(), "pinned.model")
	if err := writeModel(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "f29dc1408f9b9b4ddb869a34973cbb7a68877ab7b800f7f0ccdbcd60f49a4cd9"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("EDGEMDL1 container: sha256 %s, want %s", got, want)
	}
}
