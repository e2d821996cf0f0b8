package models

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"testing"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/tensor"
)

// hashTensor feeds a tensor's shape and every element's bits to h.
func hashTensor(h hash.Hash, t *tensor.Tensor) {
	fmt.Fprintf(h, "%v:", t.Shape())
	var b [4]byte
	for _, v := range t.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

// TestProxyBitsPinned pins every float of the five classifier proxies —
// structure, the extractor's convolution weights, the embedded-template
// head — and of the class templates, as digests captured before template
// embedding was batched and the reference conv restructured. Proxy
// construction may get faster; it may not change a bit.
func TestProxyBitsPinned(t *testing.T) {
	opts := DefaultProxyOptions()
	h := sha256.New()
	for _, tpl := range dataset.Templates(opts.Seed, opts.Classes) {
		hashTensor(h, tpl)
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "d4efc24acfa0f6aa89d96b97a5179a658719c4451c8cf26dc23d99ebb463d556"; got != want {
		t.Errorf("dataset.Templates digest %s, want %s", got, want)
	}
	want := map[string]string{
		"alexnet":     "c1b919e1024eae3647285b453e32334f33a10182c3910f26ac2b2decd04cdd9b",
		"googlenet":   "85e6ce34b27fa8ef88675a6841cd6176b7726c0ed89b179f0c97cc5f2c805d36",
		"resnet18":    "e969026c314dfe43a744c29c681742073898ae074419065d770dc375cd1f194b",
		"inceptionv4": "5d138f2e7b223a86246119b86955af5db0ac0d8dffd118873308fc6345b7bab4",
		"vgg16":       "c49a5bc9e9e21eec2d1aeb072f269c22abb755097e872d50ad590d3ea0a2b574",
	}
	for _, name := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
		g, err := BuildProxy(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s %v %v %s %s|", g.Name, g.InputShape, g.Outputs, g.Task, g.Framework)
		for _, l := range g.Layers {
			fmt.Fprintf(h, "%s %v %v %+v %+v %d %v|", l.Name, l.Op, l.Inputs, l.Conv, l.Pool, l.OutUnits, l.OutShape)
			keys := make([]string, 0, len(l.Weights))
			for k := range l.Weights {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(h, "%s=", k)
				hashTensor(h, l.Weights[k])
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[name] {
			t.Errorf("%s proxy digest %s, want %s", name, got, want[name])
		}
	}
}

func TestProxyBuilds(t *testing.T) {
	for name := range proxySpecs {
		g, err := BuildProxy(name, DefaultProxyOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.Finalized() {
			t.Fatalf("%s proxy not finalized", name)
		}
		shape := g.OutputShapes()[0]
		if shape[1] != dataset.NumClasses {
			t.Fatalf("%s proxy output width %d", name, shape[1])
		}
	}
}

func TestHasProxy(t *testing.T) {
	if !HasProxy("alexnet") || HasProxy("mtcnn") {
		t.Fatal("proxy registry wrong")
	}
}

func TestBuildProxyErrors(t *testing.T) {
	negative := DefaultProxyOptions()
	negative.Classes = -1
	for _, tc := range []struct {
		row, model string
		opts       ProxyOptions
	}{
		{"unknown model", "mtcnn", DefaultProxyOptions()},
		{"negative class count", "resnet18", negative},
	} {
		if g, err := BuildProxy(tc.model, tc.opts); err == nil {
			t.Errorf("%s: BuildProxy(%q, %+v) built %s, want an error", tc.row, tc.model, tc.opts, g.Name)
		}
	}
}

// TestBuildProxyAllocs pins what building each proxy allocates as
// a + b·workers. b is one embedding worker's reused buffers: its input
// tensor, its argument slice, its activation list and one activation per
// extractor layer. a is everything else — both graphs, the head and the
// chunks, which allocate nothing once a worker's buffers exist.
// testing.AllocsPerRun runs at GOMAXPROCS 1 whatever -cpu says, so each
// measured build sets the worker count itself. At one worker the count
// is exact. More workers add fanout.ForEach's bookkeeping (its result
// slices, counter, WaitGroup and one closure per goroutine) and
// whatever the runtime does not take from its caches: a goroutine
// record per spawned worker, a sync.Pool slot per P. So there the count
// may exceed a + b·workers by up to 4 + 3·workers; a chunk that
// allocated would add 25 at any worker count.
func TestBuildProxyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	pinned := map[string]float64{"alexnet": 125, "googlenet": 111, "resnet18": 111, "inceptionv4": 112, "vgg16": 90}
	for _, name := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
		perWorker := float64(3 + len(buildExtractor(name, proxySpecs[name], 1).Layers) - 1)
		for _, workers := range []int{1, 2, 3} {
			n := testing.AllocsPerRun(10, func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				if _, err := BuildProxy(name, DefaultProxyOptions()); err != nil {
					t.Fatal(err)
				}
			})
			lo := pinned[name] + perWorker*float64(workers)
			hi := lo
			if workers > 1 {
				hi += 4 + 3*float64(workers)
			}
			if n < lo || n > hi {
				t.Errorf("%s proxy build on %d workers allocates %v times, want %v to %v", name, workers, n, lo, hi)
			}
		}
	}
}

func TestProxyClassifiesCleanTemplates(t *testing.T) {
	// Noise-free templates must classify (nearly) perfectly with a clean
	// (overfit-free) proxy.
	opts := DefaultProxyOptions()
	opts.OverfitSigma = 0
	g, err := BuildProxy("resnet18", opts)
	if err != nil {
		t.Fatal(err)
	}
	tpls := dataset.Templates(opts.Seed, opts.Classes)
	wrong := 0
	for c, tpl := range tpls {
		outs, err := g.Execute(tpl)
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Argmax() != c {
			wrong++
		}
	}
	// The truncated (sparse) matched-filter head trades some clean
	// accuracy for prunability; ~4/5 of noise-free templates must still
	// classify correctly.
	if wrong > opts.Classes/4 {
		t.Fatalf("%d/%d clean templates misclassified", wrong, opts.Classes)
	}
}

func TestProxyErrorOrderingMatchesPaper(t *testing.T) {
	// Paper Table III: error(alexnet) > error(resnet18) > error(vgg16).
	cfg := dataset.DefaultBenign(5) // 500 images for speed
	benign := dataset.Benign(cfg)
	errs := map[string]float64{}
	for _, name := range []string{"alexnet", "resnet18", "vgg16"} {
		g, err := BuildProxy(name, DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for _, s := range benign {
			outs, err := g.Execute(s.Image)
			if err != nil {
				t.Fatal(err)
			}
			if outs[0].Argmax() != s.Label {
				wrong++
			}
		}
		errs[name] = float64(wrong) / float64(len(benign))
	}
	if !(errs["alexnet"] > errs["resnet18"] && errs["resnet18"] > errs["vgg16"]) {
		t.Fatalf("error ordering wrong: %v", errs)
	}
	for name, e := range errs {
		if e < 0.20 || e > 0.70 {
			t.Errorf("%s error %.0f%% outside the paper's 30-55%% regime", name, e*100)
		}
	}
}

func TestProxyDeterministic(t *testing.T) {
	g1, _ := BuildProxy("vgg16", DefaultProxyOptions())
	g2, _ := BuildProxy("vgg16", DefaultProxyOptions())
	w1 := g1.Layer("fc_head").Weights["w"]
	w2 := g2.Layer("fc_head").Weights["w"]
	for i := range w1.Data {
		if w1.Data[i] != w2.Data[i] {
			t.Fatal("proxy weights not deterministic")
		}
	}
}

func TestOverfitPerturbsOnlyZeros(t *testing.T) {
	clean, _ := BuildProxy("resnet18", ProxyOptions{OverfitSigma: 0})
	noisy, _ := BuildProxy("resnet18", ProxyOptions{OverfitSigma: 0.45})
	wc := clean.Layer("fc_head").Weights["w"]
	wn := noisy.Layer("fc_head").Weights["w"]
	changedNonzero := 0
	addedOnZero := 0
	for i := range wc.Data {
		if wc.Data[i] == 0 {
			if wn.Data[i] != 0 {
				addedOnZero++
			}
		} else if wc.Data[i] != wn.Data[i] {
			changedNonzero++
		}
	}
	if addedOnZero == 0 {
		t.Fatal("overfit perturbation missing")
	}
	if changedNonzero != 0 {
		t.Fatal("overfit perturbation touched supported coordinates")
	}
}
