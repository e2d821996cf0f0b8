// Command rtexec is the trtexec-like workbench of the simulator: it
// builds engines from zoo models (or framework files exported by this
// tool), saves/loads serialized plans, times inference on a chosen
// platform, and profiles it: the nvprof-like summary and GPU trace, a
// chrome://tracing timeline, and a tegrastats-like utilization sample.
//
// Usage:
//
//	rtexec -model resnet18 -platform NX                      # build + time
//	rtexec -model resnet18 -platform NX -save resnet18.plan  # build + save
//	rtexec -load resnet18.plan -run AGX                      # cross-platform run
//	rtexec -model googlenet -platform AGX -export caffe -o googlenet.model
//	rtexec -import googlenet.model -platform NX              # framework import
//	rtexec -model pednet -platform NX -runs 10 -profile      # stats + profile
//	rtexec -model pednet -platform NX -trace                 # + GPU trace of run 0
//	rtexec -model resnet18 -chrome trace.json                # run 0 as a chrome://tracing timeline
//	rtexec -model tiny-yolov3 -platform AGX -tegrastats 36   # utilization sample, 36 threads
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"edgeinfer/internal/core"
	"edgeinfer/internal/frameworks"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/models"
	"edgeinfer/internal/profiler"
	"edgeinfer/internal/tensor"
)

func main() {
	model := flag.String("model", "", "zoo model name (see -list)")
	list := flag.Bool("list", false, "list zoo models")
	platform := flag.String("platform", "NX", "build platform: NX or AGX")
	run := flag.String("run", "", "run platform (default: build platform)")
	clock := flag.Float64("clock", 0, "GPU clock MHz (0 = paper latency clock)")
	buildID := flag.Int("build", 1, "build id (engines with different ids may differ)")
	precision := flag.String("precision", "fp16", "engine precision: fp32, fp16 or int8")
	runs := flag.Int("runs", 10, "timed runs")
	prof := flag.Bool("profile", false, "attach the nvprof-like profiler and print a summary")
	trace := flag.Bool("trace", false, "also print the GPU trace of run 0, every launch (implies -profile)")
	chrome := flag.String("chrome", "", "write run 0 as a chrome://tracing JSON timeline to this path (implies -profile)")
	tegra := flag.Int("tegrastats", 0, "print a tegrastats sample of this many concurrent inference threads at the max clock instead of timing (0 = off)")
	memcpy := flag.Bool("memcpy", true, "include engine H2D copy in timing")
	save := flag.String("save", "", "save the built engine plan to a file")
	load := flag.String("load", "", "load an engine plan instead of building")
	export := flag.String("export", "", "export the model in a framework format (caffe|tensorflow|darknet|pytorch)")
	importPath := flag.String("import", "", "import a framework model file (written by -export)")
	out := flag.String("o", "model.out", "output path for -export")
	dot := flag.String("dot", "", "write a Graphviz rendering of the model graph to this path")
	tcPath := flag.String("timingCache", "", "timing-cache file: loaded if present, saved after the build (warm builds skip tactic re-timing)")
	flag.Parse()
	profile := *prof || *trace || *chrome != ""
	if *tegra < 0 {
		fail(fmt.Errorf("-tegrastats %d: need a thread count, or 0 for off", *tegra))
	}
	fail(oneSource(*model, *load, *importPath))
	if *load != "" && (*export != "" || *dot != "") {
		fail(fmt.Errorf("-export and -dot need -model or -import: a loaded plan carries no model graph"))
	}

	if *list {
		for _, name := range models.List() {
			fmt.Println(name)
		}
		return
	}

	var e *core.Engine
	var g *graph.Graph
	switch {
	case *load != "":
		var err error
		e, err = core.LoadFile(*load)
		fail(err)
		fmt.Printf("loaded engine: %s (built on %s, build %d, %d kernels, %.2f MB)\n",
			e.ModelName, e.Platform, e.BuildID, len(e.Launches), float64(e.SizeBytes())/1e6)
	case *importPath != "":
		g = importModel(*importPath)
	case *model != "":
		var err error
		g, err = models.Build(*model)
		fail(err)
	default:
		fmt.Fprintln(os.Stderr, "rtexec: need -model, -load or -import (see -h)")
		os.Exit(2)
	}

	if *dot != "" {
		fail(writeFile(*dot, []byte(g.DOT())))
		fmt.Printf("wrote graph of %s to %s (render with: dot -Tsvg %s)\n", g.Name, *dot, *dot)
		return
	}

	if *export != "" {
		m, err := frameworks.Export(g, frameworks.Format(*export))
		fail(err)
		fail(writeModel(*out, m))
		fmt.Printf("exported %s as %s to %s (%d arch bytes, %d weight bytes)\n",
			g.Name, *export, *out, len(m.Arch), len(m.Weights))
		return
	}

	if *tegra == 0 && *runs < 1 {
		fail(fmt.Errorf("-runs %d: need at least 1 timed run", *runs))
	}
	spec, err := gpusim.ByName(*platform)
	fail(err)
	if e == nil {
		cfg := core.DefaultConfig(spec, *buildID)
		switch *precision {
		case "fp32":
			cfg.Precision = tensor.FP32
		case "fp16":
			cfg.Precision = tensor.FP16
		case "int8":
			cfg.Precision = tensor.INT8
		default:
			fail(fmt.Errorf("unknown precision %q", *precision))
		}
		var cache *core.TimingCache
		if *tcPath != "" {
			if _, statErr := os.Stat(*tcPath); statErr == nil {
				cache, err = core.LoadTimingCacheFile(*tcPath)
				fail(err)
				fmt.Printf("loaded timing cache %s (%d entries)\n", *tcPath, cache.Len())
			} else {
				cache = core.NewTimingCache()
			}
			cfg.TimingCache = cache
		}
		e, err = core.Build(g, cfg)
		fail(err)
		fmt.Printf("built engine: %s on %s (build %d)\n", e.ModelName, e.Platform, e.BuildID)
		fmt.Printf("  optimization: %d layers removed, %d fused, %d horizontally merged\n",
			e.RemovedLayers, e.FusedLayers, e.MergedLaunches)
		fmt.Printf("  plan: %d kernel launches, %.2f MB serialized\n", len(e.Launches), float64(e.SizeBytes())/1e6)
		if rep := e.Report; rep != nil && cache != nil {
			kind := "cold"
			if rep.WarmBuild {
				kind = "warm"
			}
			fmt.Printf("  timing cache: %s build, %d hits / %d misses, %.1f ms tactic-timing cost\n",
				kind, rep.CacheHits, rep.CacheMisses, rep.TuneCostSec*1e3)
			fail(cache.SaveFile(*tcPath))
			fmt.Printf("saved timing cache to %s (%d entries)\n", *tcPath, cache.Len())
		}
	}
	if *save != "" {
		fail(e.SaveFile(*save))
		fmt.Printf("saved plan to %s\n", *save)
	}

	runSpec := spec
	if *run != "" {
		runSpec, err = gpusim.ByName(*run)
		fail(err)
	}
	if *tegra > 0 {
		// tegrastats observes the boost clock the paper's concurrency
		// experiments ran at, whatever -clock says.
		dev := gpusim.NewDevice(runSpec, gpusim.PaperMaxClock(runSpec))
		load := e.StreamLoad(dev)
		fmt.Println(profiler.Tegrastats(dev, load, *tegra).Render())
		fmt.Printf("(per-thread FPS %.1f; platform saturates at %d threads)\n",
			gpusim.ThreadFPS(dev, load, *tegra), gpusim.SaturationThreads(dev, load))
		return
	}
	clk := *clock
	if clk == 0 {
		clk = gpusim.PaperLatencyClock(runSpec)
	}
	dev := gpusim.NewDevice(runSpec, clk)

	var results []core.RunResult
	secs := make([]float64, *runs)
	for i := 0; i < *runs; i++ {
		r := e.Run(core.RunConfig{Device: dev, IncludeMemcpy: *memcpy, Profile: profile, RunIndex: i})
		secs[i] = r.LatencySec
		results = append(results, r)
	}
	stats := metrics.Latencies(secs)
	fmt.Printf("ran %d inferences on %s @ %.0f MHz: %.2f ms mean (std %.2f, min %.2f, max %.2f)\n",
		stats.N, runSpec.Short(), clk, stats.MeanMS, stats.StdMS, stats.MinMS, stats.MaxMS)
	fmt.Printf("throughput: %.1f FPS\n", metrics.FPS(stats.MeanMS/1e3))
	if profile {
		fmt.Println(profiler.Summarize(results...).Render())
	}
	if *trace {
		fmt.Print(profiler.Trace(results[0]))
	}
	if *chrome != "" {
		doc, err := profiler.ChromeTrace(e.Key(), results[0])
		fail(err)
		fail(writeFile(*chrome, doc))
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing)\n", len(results[0].Kernels)+1, *chrome)
	}
}

func importModel(path string) *graph.Graph {
	data, err := os.ReadFile(path)
	fail(err)
	m, err := readModel(data)
	fail(err)
	g, err := frameworks.Import(m)
	fail(err)
	fmt.Printf("imported %s model %s (%d layers)\n", m.Format, g.Name, len(g.Layers))
	return g
}

// oneSource refuses more than one of -model, -load and -import: each
// names where the engine comes from, so none may silently win over
// another.
func oneSource(model, load, importPath string) error {
	var given []string
	for _, f := range []struct{ flag, value string }{{"-model", model}, {"-load", load}, {"-import", importPath}} {
		if f.value != "" {
			given = append(given, f.flag)
		}
	}
	if len(given) > 1 {
		return fmt.Errorf("%s each name the engine's source: give one", strings.Join(given, " and "))
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtexec:", err)
		os.Exit(1)
	}
}
