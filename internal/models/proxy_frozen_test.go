package models

import (
	"fmt"
	"math"
	"testing"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// The frozen proxy builder: BuildProxy and dataset.Templates as they
// stood when every class template was its own tensor, drawn from a
// nested coarse grid, and all of them were embedded in one Execute of a
// [classes, C, H, W] extractor. Proxy construction has since been
// restructured for speed; it must still give every weight the same
// bits, so these bodies stay as they were.

func frozenBuildProxy(name string, opts ProxyOptions) (*graph.Graph, error) {
	spec, ok := proxySpecs[name]
	if !ok {
		return nil, fmt.Errorf("models: no numeric proxy for %q", name)
	}
	if opts.Classes == 0 {
		opts.Classes = dataset.NumClasses
	}
	if opts.Seed == "" {
		opts.Seed = "imagenet-proxy"
	}
	extractor := buildExtractor(name+"-extractor", spec, opts.Classes)
	if err := extractor.Finalize(); err != nil {
		return nil, err
	}
	templates := tensor.New(opts.Classes, dataset.ImgC, dataset.ImgHW, dataset.ImgHW)
	for c, tpl := range frozenTemplates(opts.Seed, opts.Classes) {
		copy(templates.Data[c*len(tpl.Data):], tpl.Data)
	}
	outs, err := extractor.Execute(templates)
	if err != nil {
		return nil, fmt.Errorf("models: embedding templates: %w", err)
	}
	feat := outs[0]
	featDim := feat.C

	w := tensor.New(1, opts.Classes*featDim, 1, 1)
	copy(w.Data, feat.Data)
	mean := make([]float32, featDim)
	for c := 0; c < opts.Classes; c++ {
		for i, v := range feat.Data[c*featDim : (c+1)*featDim] {
			mean[i] += v / float32(opts.Classes)
		}
	}
	for c := 0; c < opts.Classes; c++ {
		row := w.Data[c*featDim : (c+1)*featDim]
		var rowMax float32
		for i := 0; i < featDim; i++ {
			row[i] -= mean[i]
			if a := absf32(row[i]); a > rowMax {
				rowMax = a
			}
		}
		thresh := 0.25 * rowMax
		for i := 0; i < featDim; i++ {
			if a := absf32(row[i]); a < thresh {
				row[i] = 0
			}
		}
	}
	if opts.OverfitSigma > 0 {
		var sumsq float64
		for _, v := range w.Data {
			sumsq += float64(v) * float64(v)
		}
		rms := sqrtf(sumsq / float64(len(w.Data)))
		src := fixrand.NewKeyed("overfit/" + name + "/" + opts.Seed)
		eps := float32(opts.OverfitSigma) * rms
		for i := range w.Data {
			if w.Data[i] == 0 {
				w.Data[i] = eps * float32(2*src.Float64()-1)
			}
		}
	}

	g := buildExtractor(name, spec, 1)
	fc := &graph.Layer{Name: "fc_head", Op: graph.OpFC, Inputs: []string{"feat"},
		OutUnits: opts.Classes, Weights: map[string]*tensor.Tensor{"w": w, "b": tensor.NewVec(opts.Classes)}}
	g.Add(fc)
	g.Add(&graph.Layer{Name: "prob", Op: graph.OpSoftmax, Inputs: []string{"fc_head"}})
	g.Outputs = []string{"prob"}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	g.Task = "classification"
	if info, err := Lookup(name); err == nil {
		g.Framework = info.Framework
	}
	return g, nil
}

func frozenTemplates(seed string, classes int) []*tensor.Tensor {
	src := fixrand.NewKeyed(seed + "/base")
	base := make([]float64, dataset.ImgC*frozenGrid*frozenGrid)
	for i := range base {
		base[i] = src.NormFloat64()
	}
	ts := make([]*tensor.Tensor, classes)
	for c := 0; c < classes; c++ {
		ts[c] = frozenTemplate(fmt.Sprintf("%s/class%d", seed, c), base)
	}
	return ts
}

const frozenGrid = 4

func frozenTemplate(key string, base []float64) *tensor.Tensor {
	type upsampleTap struct {
		i0, i1 int
		d      float64
	}
	var taps [dataset.ImgHW]upsampleTap
	scale := float64(frozenGrid-1) / float64(dataset.ImgHW-1)
	for i := range taps {
		f := float64(i) * scale
		i0 := int(f)
		taps[i] = upsampleTap{i0, min(i0+1, frozenGrid-1), f - float64(i0)}
	}
	src := fixrand.NewKeyed(key)
	rho := float64(0.94)
	ownWeight := frozenSqrt64(1 - rho*rho)
	coarse := make([][][]float64, dataset.ImgC)
	for ch := range coarse {
		coarse[ch] = make([][]float64, frozenGrid)
		for i := range coarse[ch] {
			coarse[ch][i] = make([]float64, frozenGrid)
			for j := range coarse[ch][i] {
				v := src.NormFloat64()
				if src.Float64() > 0.4 {
					v = 0
				} else {
					v *= 1.58
				}
				if base != nil {
					v = rho*base[(ch*frozenGrid+i)*frozenGrid+j] + ownWeight*v
				}
				coarse[ch][i][j] = v
			}
		}
	}
	t := tensor.New(1, dataset.ImgC, dataset.ImgHW, dataset.ImgHW)
	var sumsq float64
	for ch := 0; ch < dataset.ImgC; ch++ {
		for y, ty := range taps {
			for x, tx := range taps {
				dy, dx := ty.d, tx.d
				v := coarse[ch][ty.i0][tx.i0]*(1-dy)*(1-dx) +
					coarse[ch][ty.i1][tx.i0]*dy*(1-dx) +
					coarse[ch][ty.i0][tx.i1]*(1-dy)*dx +
					coarse[ch][ty.i1][tx.i1]*dy*dx
				t.Set(0, ch, y, x, float32(v))
				sumsq += v * v
			}
		}
	}
	rms := float32(1)
	if sumsq > 0 {
		rms = float32(sumsq / float64(t.Len()))
	}
	inv := 1 / frozenSqrt32(rms)
	for i := range t.Data {
		t.Data[i] *= inv
	}
	return t
}

func frozenSqrt64(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 30; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

func frozenSqrt32(v float32) float32 {
	if v <= 0 {
		return 1
	}
	x := v
	for i := 0; i < 24; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// sameGraphBits describes the first difference between two proxies —
// structure, layer shapes, or any weight's bits; "" means none.
func sameGraphBits(got, want *graph.Graph) string {
	if got.Name != want.Name || got.InputShape != want.InputShape || fmt.Sprint(got.Outputs) != fmt.Sprint(want.Outputs) ||
		got.Task != want.Task || got.Framework != want.Framework || len(got.Layers) != len(want.Layers) {
		return fmt.Sprintf("graph header %s %v %v %s %s (%d layers), frozen %s %v %v %s %s (%d layers)",
			got.Name, got.InputShape, got.Outputs, got.Task, got.Framework, len(got.Layers),
			want.Name, want.InputShape, want.Outputs, want.Task, want.Framework, len(want.Layers))
	}
	for i, l := range got.Layers {
		fl := want.Layers[i]
		if a, b := fmt.Sprintf("%s %v %v %+v %+v %d %v", l.Name, l.Op, l.Inputs, l.Conv, l.Pool, l.OutUnits, l.OutShape),
			fmt.Sprintf("%s %v %v %+v %+v %d %v", fl.Name, fl.Op, fl.Inputs, fl.Conv, fl.Pool, fl.OutUnits, fl.OutShape); a != b {
			return fmt.Sprintf("layer %d is %s, frozen %s", i, a, b)
		}
		if len(l.Weights) != len(fl.Weights) {
			return fmt.Sprintf("layer %s has %d weights, frozen %d", l.Name, len(l.Weights), len(fl.Weights))
		}
		for k, wt := range l.Weights {
			fw := fl.Weights[k]
			if fw == nil || wt.Shape() != fw.Shape() {
				return fmt.Sprintf("layer %s weight %s shape differs from the frozen builder's", l.Name, k)
			}
			for j := range wt.Data {
				if math.Float32bits(wt.Data[j]) != math.Float32bits(fw.Data[j]) {
					return fmt.Sprintf("layer %s weight %s[%d] = %v, frozen %v", l.Name, k, j, wt.Data[j], fw.Data[j])
				}
			}
		}
	}
	return ""
}

// TestBuildProxyMatchesFrozen holds BuildProxy to the frozen builder bit
// for bit across class counts that fill no chunk, exactly one, one and a
// remainder, several with a remainder, and the full 100 — so a wrong
// remainder extractor, a stale image left in a reused input tensor, or a
// chunk copied to the wrong head row shows.
func TestBuildProxyMatchesFrozen(t *testing.T) {
	for _, classes := range []int{1, 3, 4, 5, 7, 100} {
		for _, name := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
			opts := DefaultProxyOptions()
			opts.Classes = classes
			got, err := BuildProxy(name, opts)
			if err != nil {
				t.Fatalf("%s, %d classes: %v", name, classes, err)
			}
			want, err := frozenBuildProxy(name, opts)
			if err != nil {
				t.Fatalf("%s, %d classes (frozen): %v", name, classes, err)
			}
			if diff := sameGraphBits(got, want); diff != "" {
				t.Errorf("%s, %d classes: %s", name, classes, diff)
			}
		}
	}
}
