package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/latpred"
	"edgeinfer/internal/models"
	"edgeinfer/internal/netserve"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// Direct per-layer metrics: a timed loop of calls into one exported
// function, with nothing else running. They do not depend on the
// workload, so every traced run measures them.

// directLoop is how long each loop runs.
func (c runConfig) directLoop() time.Duration {
	if c.quick {
		return 20 * time.Millisecond
	}
	return 250 * time.Millisecond
}

// timeLoop calls f for about d and returns the mean time and heap
// allocations of one call.
func timeLoop(d time.Duration, f func() error) (perCall time.Duration, allocs float64, err error) {
	if err := f(); err != nil { // once, untimed: first-call costs are not the loop's
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		if err := f(); err != nil {
			return 0, 0, err
		}
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// noopBackend answers every batch at once with a fixed output, so a
// handler loop measures the front door and nothing behind it.
type noopBackend struct{ out *tensor.Tensor }

func (b noopBackend) ServeBatch(_ *rtctx.Request, xs []*tensor.Tensor, _ int) (*netserve.BatchAnswer, error) {
	ans := &netserve.BatchAnswer{Results: make([]netserve.Answer, len(xs))}
	for i := range ans.Results {
		ans.Results[i] = netserve.Answer{Outputs: []*tensor.Tensor{b.out}, Tier: "noop"}
	}
	return ans, nil
}
func (noopBackend) Ready() (bool, string) { return true, "noop" }
func (noopBackend) InputShape() [4]int    { return [4]int{1, 3, 32, 32} }

func directMetrics(cfg runConfig, v map[string]float64) error {
	d := cfg.directLoop()
	spec := gpusim.XavierNX()

	// netserve: Handler() through a recorder against the no-op backend.
	// MaxBatch 1 closes every batch at once: no window is waited on.
	srv, err := netserve.New(netserve.Config{
		Models:   []netserve.ModelConfig{{Name: "noop", Backend: noopBackend{out: tensor.NewVec(4)}}},
		MaxBatch: 1,
	})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	for _, kind := range []struct {
		name string
		body []byte
	}{{"index", indexBody(7)}, {"raw", rawBody(rawCorpus()[0])}} {
		per, allocs, err := timeLoop(d, func() error {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/noop/infer", bytes.NewReader(kind.body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("no-op handler answered %d: %s", rec.Code, rec.Body.String())
			}
			return nil
		})
		if err != nil {
			return err
		}
		v["netserve.handler_us."+kind.name] = us(per)
		v["netserve.handler_allocs."+kind.name] = allocs
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}

	// core: single-image and batch-of-8 inference on the resnet18 proxy.
	reg := serve.NewRegistry(spec, nil)
	eng, err := reg.ProxyEngine("resnet18")
	if err != nil {
		return err
	}
	inputs := indexCorpus()
	per, allocs, err := timeLoop(d, func() error {
		_, err := eng.Infer(inputs[0])
		return err
	})
	if err != nil {
		return err
	}
	v["core.infer_us"], v["core.infer_allocs"] = us(per), allocs
	per, allocs, err = timeLoop(d, func() error {
		_, err := eng.InferBatchCtx(nil, inputs[:8], nil, nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	v["core.infer_batch8_us_per_image"], v["core.infer_batch8_allocs"] = us(per)/8, allocs

	if err := directKernels(d, eng, v); err != nil {
		return err
	}

	// gpusim: one timed pass of a full-scale engine.
	big, err := reg.Engine("inceptionv4")
	if err != nil {
		return err
	}
	dev := gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
	run := 0
	per, _, err = timeLoop(d, func() error {
		big.Run(core.RunConfig{Device: dev, RunIndex: run})
		run++
		return nil
	})
	if err != nil {
		return err
	}
	v["gpusim.run_us"] = us(per)

	// latpred: one prediction by a model trained on a cold zoo cache.
	cache := core.NewTimingCache()
	for _, name := range models.List() {
		bc := core.DefaultConfig(spec, 1)
		bc.TimingCache = cache
		if _, err := core.Build(models.MustBuild(name), bc); err != nil {
			return err
		}
	}
	model, _, err := latpred.Train(cache, latpred.DefaultTrainOptions())
	if err != nil {
		return err
	}
	launches := big.Launches
	i := 0
	per, _, err = timeLoop(d, func() error {
		model.PredictSec(dev, launches[i%len(launches)].Spec)
		i++
		return nil
	})
	if err != nil {
		return err
	}
	v["latpred.predict_ns"] = float64(per)
	return nil
}

// directKernels times the engine's largest convolution and its FC layer
// under the variants the tuner chose, and computes — from the dims, not
// from a measurement — what one conv call costs in operations and bytes.
func directKernels(d time.Duration, eng *core.Engine, v map[string]float64) error {
	g := eng.Graph
	shapeOf := map[string][4]int{}
	for _, l := range g.Layers {
		shapeOf[l.Name] = l.OutShape
	}
	var conv, fc *graph.Layer
	var convFLOPs int64
	for _, l := range g.Layers {
		switch l.Op {
		case graph.OpConv:
			in := shapeOf[l.Inputs[0]]
			groups := max(l.Conv.Groups, 1)
			flops := 2 * int64(l.OutShape[1]) * int64(l.OutShape[2]) * int64(l.OutShape[3]) * int64(in[1]/groups) * int64(l.Conv.Kernel) * int64(l.Conv.Kernel)
			if flops > convFLOPs {
				conv, convFLOPs = l, flops
			}
		case graph.OpFC:
			fc = l
		}
	}
	if conv == nil || fc == nil {
		return fmt.Errorf("engine %s has no conv or no fc layer to time", eng.Key())
	}
	rng := rand.New(rand.NewSource(1))
	randomInput := func(shape [4]int) *tensor.Tensor {
		t := tensor.New(shape[0], shape[1], shape[2], shape[3])
		for i := range t.Data {
			t.Data[i] = float32(rng.NormFloat64())
		}
		return t
	}
	variant := func(l *graph.Layer) kernels.Variant {
		vr := eng.Choices[l.Name]
		vr.FusedAct = eng.Fusions[l.Name].Act == core.ActReLU
		return vr
	}

	x := randomInput(shapeOf[conv.Inputs[0]])
	y := tensor.New(conv.OutShape[0], conv.OutShape[1], conv.OutShape[2], conv.OutShape[3])
	w, b := conv.Weights["w"], conv.Weights["b"]
	cv := variant(conv)
	per, _, err := timeLoop(d, func() error { return kernels.ExecConvInto(cv, x, w, b, conv.Conv, y) })
	if err != nil {
		return err
	}
	v["kernels.conv_us"] = us(per)
	v["kernels.conv_mflop_per_call"] = float64(convFLOPs) / 1e6
	v["kernels.conv_bytes_per_call"] = float64(4 * (x.Len() + w.Len() + y.Len()))

	fx := randomInput(shapeOf[fc.Inputs[0]])
	fy := tensor.New(fx.N, fc.OutUnits, 1, 1)
	fw, fb := fc.Weights["w"], fc.Weights["b"]
	fv := variant(fc)
	per, _, err = timeLoop(d, func() error { return kernels.ExecFCInto(fv, fx, fw, fb, fc.OutUnits, fy) })
	if err != nil {
		return err
	}
	v["kernels.fc_us"] = us(per)
	v["kernels.workers"] = float64(kernels.Workers())
	return nil
}
