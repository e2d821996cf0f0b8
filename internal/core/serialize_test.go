package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// TestPlanRoundTripEveryField: Load(Save(e)) is e, field by field, for
// every zoo model on both platforms at FP16 and INT8 (timing-only), the
// five numeric proxies and a calibrated INT8 proxy; saving the loaded
// engine again gives the same bytes, its timed run at run index 0 takes
// the same simulated time, and a numeric engine infers the same bits.
func TestPlanRoundTripEveryField(t *testing.T) {
	type roundTrip struct {
		name string
		e    *Engine
	}
	var cases []roundTrip
	build := func(name string, g *graph.Graph, cfg BuildConfig) {
		e, err := Build(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, roundTrip{name, e})
	}
	for _, model := range models.List() {
		g := models.MustBuild(model)
		for _, spec := range gpusim.Platforms() {
			for _, prec := range []tensor.Precision{tensor.FP16, tensor.INT8} {
				cfg := DefaultConfig(spec, 1)
				cfg.Precision = prec
				build(fmt.Sprintf("%s/%s/%v", model, spec.Short(), prec), g, cfg)
			}
		}
	}
	for _, model := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
		g, err := models.BuildProxy(model, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		build(model+"/proxy", g, nxCfg(1))
		if model == "resnet18" {
			build(model+"/proxy/INT8", g, int8Config(1, PercentileCalibrator{Images: calibImages(2), Pct: 100}))
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var plan bytes.Buffer
			if err := tc.e.Save(&plan); err != nil {
				t.Fatal(err)
			}
			got, err := Load(bytes.NewReader(plan.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			samePlanFields(t, tc.e, got)
			var again bytes.Buffer
			if err := got.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plan.Bytes(), again.Bytes()) {
				t.Errorf("re-saving the loaded engine gives %d bytes that differ from the %d saved", again.Len(), plan.Len())
			}
			dev := gpusim.NewDevice(gpusim.XavierNX(), 0)
			run := RunConfig{Device: dev, IncludeMemcpy: true, RunIndex: 0}
			if a, b := tc.e.Run(run).LatencySec, got.Run(run).LatencySec; a != b {
				t.Errorf("run 0 latency %v, loaded %v", a, b)
			}
			if tc.e.Numeric {
				sameInferBits(t, tc.e, got)
			}
		})
	}
}

// samePlanFields compares everything a plan carries. Maps and slices
// compare by contents: a nil map and an empty one carry the same plan.
func samePlanFields(t *testing.T, want, got *Engine) {
	t.Helper()
	type identity struct {
		ModelName, Platform                        string
		BuildID                                    int
		Precision                                  tensor.Precision
		Numeric                                    bool
		RemovedLayers, FusedLayers, MergedLaunches int
		Framework, Task                            string
		InputShape                                 [4]int
	}
	id := func(e *Engine) identity {
		return identity{e.ModelName, e.Platform, e.BuildID, e.Precision, e.Numeric,
			e.RemovedLayers, e.FusedLayers, e.MergedLaunches,
			e.Graph.Framework, e.Graph.Task, e.Graph.InputShape}
	}
	if id(want) != id(got) {
		t.Errorf("identity %+v, loaded %+v", id(want), id(got))
	}
	if !slices.Equal(want.Graph.Outputs, got.Graph.Outputs) {
		t.Errorf("outputs %q, loaded %q", want.Graph.Outputs, got.Graph.Outputs)
	}
	wl, ww := want.Graph.Records()
	gl, gw := got.Graph.Records()
	if !reflect.DeepEqual(wl, gl) {
		t.Errorf("layer records differ:\n%+v\nloaded\n%+v", wl, gl)
	}
	if !slices.EqualFunc(ww, gw, func(a, b graph.WeightRecord) bool {
		return a.Layer == b.Layer && a.Key == b.Key && a.Shape == b.Shape &&
			slices.EqualFunc(a.Data, b.Data, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
	}) {
		t.Errorf("weight records differ")
	}
	if !maps.Equal(want.Choices, got.Choices) {
		t.Errorf("choices %v, loaded %v", want.Choices, got.Choices)
	}
	if !maps.EqualFunc(want.Fusions, got.Fusions, func(a, b Fusion) bool {
		return a.Act == b.Act && a.LeakyAlpha == b.LeakyAlpha && a.FoldedBN == b.FoldedBN &&
			slices.Equal(a.Absorbed, b.Absorbed)
	}) {
		t.Errorf("fusions %+v, loaded %+v", want.Fusions, got.Fusions)
	}
	if !maps.Equal(want.Int8Ranges, got.Int8Ranges) {
		t.Errorf("int8 ranges %v, loaded %v", want.Int8Ranges, got.Int8Ranges)
	}
	if !slices.EqualFunc(want.Launches, got.Launches, func(a, b Launch) bool {
		return a.Symbol == b.Symbol && slices.Equal(a.Layers, b.Layers) && a.Spec == b.Spec
	}) {
		t.Errorf("launches %+v, loaded %+v", want.Launches, got.Launches)
	}
	if !reflect.DeepEqual(want.Report, got.Report) {
		t.Errorf("report %+v, loaded %+v", want.Report, got.Report)
	}
}

// sameInferBits runs one deterministic image through both engines and
// compares every output bit.
func sameInferBits(t *testing.T, want, got *Engine) {
	t.Helper()
	s := want.Graph.InputShape
	x := tensor.New(s[0], s[1], s[2], s[3])
	for i := range x.Data {
		x.Data[i] = float32(i%17)/8 - 1
	}
	a, err := want.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d outputs, loaded %d", len(a), len(b))
	}
	for i := range a {
		if !slices.EqualFunc(a[i].Data, b[i].Data, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
			t.Errorf("output %d differs after the round trip", i)
		}
	}
}
