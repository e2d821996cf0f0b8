package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/latpred"
	"edgeinfer/internal/models"
	"edgeinfer/internal/planlint"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// build_zoo: everything that happens before an engine serves its first
// request. One round builds the 13-model zoo cold into a fresh shared
// timing cache, trains the latency predictor on that cache, builds each
// model again pruned (the tactic choices must equal an unpruned build of
// the same id) and again warm and canonical (the plan bytes must repeat
// round after round), saves, loads and verifies each plan, and builds
// the five numeric proxies through a fresh registry with their first
// inference. An operation is one engine built or loaded.

var proxyModels = []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"}

const zooWindows = 5

// zooTimedMetrics are the per-layer metrics a round times call by call;
// each reads the median over every such call of the run.
var zooTimedMetrics = []string{
	"core.build_cold_ms_p50", "core.build_pruned_ms_p50", "core.build_warm_ms_p50", "core.build_proxy_ms_p50",
	"core.plan_save_ms_p50", "core.plan_load_ms_p50", "core.first_infer_ms",
	"planlint.verify_ms_p50", "latpred.train_ms",
}

// warmBuildID is the id warm rebuilds are configured with; canonical
// warm builds stamp 0 over it, which is what makes their bytes repeat.
const warmBuildID = 1000

type zooFixture struct {
	spec   gpusim.DeviceSpec
	id     int
	graphs []*graph.Graph
	ref    []*core.Engine // unpruned, cache-less builds of id: the pruned builds' reference
	probe  *tensor.Tensor
	probeI int
	want   *zooAnswers
}

func newZooFixture(seed int64, want *zooAnswers) (*zooFixture, error) {
	f := &zooFixture{spec: gpusim.XavierNX(), id: zooBuildID(seed), want: want}
	for _, name := range models.List() {
		g, err := models.Build(name)
		if err != nil {
			return nil, err
		}
		e, err := core.Build(g, core.DefaultConfig(f.spec, f.id))
		if err != nil {
			return nil, err
		}
		f.graphs = append(f.graphs, g)
		f.ref = append(f.ref, e)
	}
	f.probeI = zooProbeInput(seed)
	f.probe = rawCorpus()[f.probeI]
	return f, nil
}

// zooRound is what one round produced, for the checks and the per-layer
// numbers.
type zooRound struct {
	ops      []sample
	totals   zooBuild
	planSHA  [][32]byte
	planSize int
	// ms holds every call the round timed, in milliseconds, under the
	// per-layer metric it feeds.
	ms map[string][]float64

	// live keeps what the round built reachable, so that the heap
	// measured after the last round includes engines, cache and registry.
	live []any
}

func (f *zooFixture) round() (*zooRound, error) {
	r := &zooRound{ms: map[string][]float64{}}
	// timed files a call under its metric; op also counts it as an
	// operation of the workload.
	timed := func(t0 time.Time, metric string) time.Duration {
		d := time.Since(t0)
		r.ms[metric] = append(r.ms[metric], float64(d)/float64(time.Millisecond))
		return d
	}
	op := func(t0 time.Time, ok bool, metric string) {
		r.ops = append(r.ops, sample{lat: timed(t0, metric), ok: ok})
	}

	cache := core.NewTimingCache()
	var simSum float64
	for _, g := range f.graphs {
		cfg := core.DefaultConfig(f.spec, f.id)
		cfg.TimingCache = cache
		t0 := time.Now()
		e, err := core.Build(g, cfg)
		if err != nil {
			return nil, err
		}
		op(t0, true, "core.build_cold_ms_p50")
		r.live = append(r.live, e)
		simSum += e.Report.ExpectedLatencySec
		r.totals.TacticsTimed += e.Report.TacticsTimed
		r.totals.CacheHits += e.Report.CacheHits
		r.totals.TuneCostSimS += e.Report.TuneCostSec
	}
	r.totals.SimMsMean = simSum / float64(len(f.graphs)) * 1e3

	t0 := time.Now()
	model, _, err := latpred.Train(cache, latpred.DefaultTrainOptions())
	if err != nil {
		return nil, err
	}
	timed(t0, "latpred.train_ms")

	for i, g := range f.graphs {
		cfg := core.DefaultConfig(f.spec, f.id)
		cfg.Predictor = model
		t0 := time.Now()
		e, err := core.Build(g, cfg)
		if err != nil {
			return nil, err
		}
		same := len(e.Choices) == len(f.ref[i].Choices)
		for layer, v := range f.ref[i].Choices {
			if e.Choices[layer] != v {
				same = false
			}
		}
		op(t0, same, "core.build_pruned_ms_p50")
		r.live = append(r.live, e)
		r.totals.PredictedPrunes += e.Report.PredictedPrunes
	}

	for _, g := range f.graphs {
		cfg := core.DefaultConfig(f.spec, warmBuildID)
		cfg.TimingCache = cache
		cfg.CanonicalWarmID = true
		t0 := time.Now()
		e, err := core.Build(g, cfg)
		if err != nil {
			return nil, err
		}
		op(t0, e.Report.WarmBuild, "core.build_warm_ms_p50")
		r.totals.CacheHits += e.Report.CacheHits

		var plan bytes.Buffer
		t0 = time.Now()
		if err := e.Save(&plan); err != nil {
			return nil, err
		}
		timed(t0, "core.plan_save_ms_p50")
		r.planSHA = append(r.planSHA, sha256.Sum256(plan.Bytes()))
		r.planSize += plan.Len()

		t0 = time.Now()
		loaded, err := core.Load(bytes.NewReader(plan.Bytes()))
		if err != nil {
			return nil, err
		}
		op(t0, true, "core.plan_load_ms_p50")
		r.live = append(r.live, e, loaded)
		t0 = time.Now()
		issues := loaded.VerifyPlan()
		timed(t0, "planlint.verify_ms_p50")
		if planlint.HasErrors(issues) {
			r.ops[len(r.ops)-1].ok = false
		}
	}

	reg := serve.NewRegistry(f.spec, nil)
	for _, name := range proxyModels {
		t0 := time.Now()
		e, err := reg.ProxyEngine(name)
		if err != nil {
			return nil, err
		}
		built := time.Now()
		outs, err := e.Infer(f.probe)
		if err != nil {
			return nil, err
		}
		timed(built, "core.first_infer_ms")
		arg := -1
		if len(outs) > 0 {
			arg = outs[0].Argmax()
		}
		r.live = append(r.live, outs)
		pinned := f.want.ProxyArgmax[name]
		op(t0, f.probeI < len(pinned) && pinned[f.probeI] == arg, "core.build_proxy_ms_p50")
	}
	r.live = append(r.live, cache, model, reg)
	return r, nil
}

// check holds a round's simulated outputs against the pinned ones and
// its warm plans against the reference round's: a mismatch fails every
// operation of the round, because nothing it built can be trusted.
func (f *zooFixture) check(r, reference *zooRound) {
	ok := r.totals == f.want.Builds[strconv.Itoa(f.id)]
	for i := range r.planSHA {
		if r.planSHA[i] != reference.planSHA[i] {
			ok = false
		}
	}
	if !ok {
		for i := range r.ops {
			r.ops[i].ok = false
		}
	}
}

func buildZoo(cfg runConfig, report io.Writer) (*outcome, error) {
	var want zooAnswers
	if err := loadExpected(wlBuildZoo, &want); err != nil {
		return nil, err
	}
	// Set-up: the model graphs, the reference builds and one whole warm-up
	// round, so lazy initialisation is paid before the first measured op.
	m := newMeter(cfg, 1) // one thread builds; the collector is all the second CPU sees
	var f *zooFixture
	var reference *zooRound
	setups, err := repeatSetup(cfg.setupRepeats(), m, func() error {
		var err error
		if f, err = newZooFixture(cfg.seed, &want); err != nil {
			return err
		}
		reference, err = f.round()
		return err
	})
	if err != nil {
		return nil, err
	}
	reference.live = nil

	// A slice is one round, so every window holds the same mix of ops; a
	// window closes at the first round boundary past its share of the run.
	windows := zooWindows
	if cfg.trace {
		windows = 1
	}
	var ws []windowStats
	var rounds []*zooRound
	start := time.Now()
	for w := 1; w <= windows; w++ {
		boundary := start.Add(cfg.duration(1) * time.Duration(w) / time.Duration(windows))
		var slices []slice
		for first := true; first || time.Now().Before(boundary); first = false {
			var r *zooRound
			var err error
			slices = append(slices, m.slice(func() []sample {
				if r, err = f.round(); err != nil {
					return nil
				}
				f.check(r, reference)
				return r.ops
			}))
			if err != nil {
				return nil, err
			}
			if len(rounds) > 0 {
				rounds[len(rounds)-1].live = nil
			}
			rounds = append(rounds, r)
		}
		ws = append(ws, reduce(slices))
	}
	heap := liveHeapMB()
	runtime.KeepAlive(rounds)

	out := tally(ws)
	if !cfg.trace {
		out.values = endToEndValues(report, m, ws, setups, heap, true)
		return out, nil
	}

	v := out.values
	for _, metric := range zooTimedMetrics {
		var all []float64
		for _, r := range rounds {
			all = append(all, r.ms[metric]...)
		}
		sort.Float64s(all)
		v[metric] = percentile(all, 50)
	}
	first := rounds[0]
	v["core.plan_bytes_mean"] = float64(first.planSize) / float64(len(first.planSHA))
	v["core.tactics_timed"] = float64(first.totals.TacticsTimed)
	v["core.cache_hits"] = float64(first.totals.CacheHits)
	v["core.predicted_prunes"] = float64(first.totals.PredictedPrunes)
	v["core.tune_cost_sim_s"] = first.totals.TuneCostSimS
	v["gpusim.sim_ms_per_op"] = first.totals.SimMsMean
	fmt.Fprintf(report, "  build id %d: %d rounds of %d ops\n", f.id, len(rounds), len(first.ops))
	return out, nil
}

// pinZoo regenerates expected/build_zoo.json.
func pinZoo() (*zooAnswers, error) {
	want := &zooAnswers{Builds: map[string]zooBuild{}, ProxyArgmax: map[string][]int{}}
	for _, name := range proxyModels {
		want.ProxyArgmax[name] = make([]int, rawCorpusSize)
	}
	for i, id := range zooBuildIDs {
		f, err := newZooFixture(int64(i), want)
		if err != nil {
			return nil, err
		}
		if f.id != id {
			return nil, fmt.Errorf("pin: seed %d selects build id %d, not %d", i, f.id, id)
		}
		r, err := f.round()
		if err != nil {
			return nil, err
		}
		want.Builds[strconv.Itoa(id)] = r.totals
	}
	reg := serve.NewRegistry(gpusim.XavierNX(), nil)
	corpus := rawCorpus()
	for _, name := range proxyModels {
		e, err := reg.ProxyEngine(name)
		if err != nil {
			return nil, err
		}
		for i, x := range corpus {
			outs, err := e.Infer(x)
			if err != nil {
				return nil, err
			}
			want.ProxyArgmax[name][i] = outs[0].Argmax()
		}
	}
	return want, nil
}
