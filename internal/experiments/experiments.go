// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I–XVIII, Figures 3–4) on the simulator. Each
// generator returns structured results plus a paper-style text rendering;
// cmd/benchtables drives them, the root benchmarks time them, and
// EXPERIMENTS.md records their output against the paper's numbers.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/fanout"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// Options scales the experiments. The paper's full scale (50 benign and
// 20 adversarial images per class, 10 latency runs) takes minutes in the
// numeric experiments; the default is a faster, statistically similar
// configuration.
type Options struct {
	BenignPerClass int // paper: 50
	AdvPerClass    int // paper: 20
	AdvTypes       []dataset.Corruption
	Runs           int // latency repetitions, paper: 10
	EnginesPerSide int // engines per platform in consistency experiments, paper: 3

	// Workers fans the per-image classification loops across this many
	// goroutines (0 = GOMAXPROCS). Dataset synthesis does not read it: it
	// always fans out across GOMAXPROCS. Results are deterministic for
	// any worker count: outputs are placed by index and kernel execution
	// is bit-identical regardless of parallelism. Workers 1 makes the
	// classification loops serial; GOMAXPROCS=1 is the fully serial run.
	Workers int
}

// Default returns the fast configuration.
func Default() Options {
	return Options{BenignPerClass: 10, AdvPerClass: 1, AdvTypes: dataset.Corruptions(), Runs: 10, EnginesPerSide: 3}
}

// Full returns the paper-scale configuration.
func Full() Options {
	return Options{BenignPerClass: 50, AdvPerClass: 20, AdvTypes: dataset.Corruptions(), Runs: 10, EnginesPerSide: 3}
}

// Lab builds and caches engines, proxies and datasets across experiments.
// All caches are safe for the concurrent access the fan-out paths
// perform; engine builds are deduplicated so concurrent table goroutines
// hitting the same engine key build it exactly once.
type Lab struct {
	Opts Options

	mu       sync.Mutex
	engines  map[string]*core.Engine
	building map[string]*buildCell
	preds    map[predKey][]int
	programs []*core.Engine                // one representative per distinct numeric program classified
	repOf    map[*core.Engine]*core.Engine // program's answers: each engine asked about, to its representative

	// The datasets are synthesized outside mu: synthesis waits on its
	// own fan-out.
	benignOnce sync.Once
	benign     []dataset.Sample
	advOnce    sync.Once
	adv        []dataset.AdversarialSample

	proxyMu sync.Mutex // held across a proxy build, so each model builds once
	proxies map[string]*graph.Graph
	refs    map[string]*core.Engine // each proxy compiled as the FP32 reference
}

// predKey names a cached prediction vector by what was computed: which
// numeric program ran — the representative of an engine's program (see
// Lab.program; a model's un-optimized reference is an engine too) — over
// which images. An image set is identified by its first tensor and its
// length: the Lab synthesizes each dataset once and every table slices
// it in order, so equal keys are equal inputs. Tables that classify the same
// program over the same set share one run whatever engine, platform or
// build id they ask through: the six engines Tables V/VI build per model
// are two programs (EXPERIMENTS.md, "Tables V & VI").
type predKey struct {
	engine *core.Engine // the program's representative
	first  *tensor.Tensor
	n      int
}

// NewLab creates a lab with the given options.
func NewLab(opts Options) *Lab {
	return &Lab{
		Opts:     opts,
		engines:  map[string]*core.Engine{},
		building: map[string]*buildCell{},
		preds:    map[predKey][]int{},
		repOf:    map[*core.Engine]*core.Engine{},
		proxies:  map[string]*graph.Graph{},
		refs:     map[string]*core.Engine{},
	}
}

// workers is the fan-out width for per-image loops.
func (l *Lab) workers() int {
	if w := l.Opts.Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// platformSpec maps short names to specs.
func platformSpec(short string) gpusim.DeviceSpec {
	if short == "AGX" {
		return gpusim.XavierAGX()
	}
	return gpusim.XavierNX()
}

// latencyDevice returns the platform at the paper's pinned latency clock.
func latencyDevice(short string) *gpusim.Device {
	spec := platformSpec(short)
	return gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
}

// maxDevice returns the platform at the paper's max (concurrency) clock.
func maxDevice(short string) *gpusim.Device {
	spec := platformSpec(short)
	return gpusim.NewDevice(spec, gpusim.PaperMaxClock(spec))
}

// buildCell is an in-flight engine build other goroutines can wait on.
type buildCell struct {
	done chan struct{}
	e    *core.Engine
	err  error
}

// cachedEngine returns the engine cached under key, building it at most
// once across concurrent callers: the first caller runs build, everyone
// else waits on its result. A panic inside build is converted to an
// error so waiters never hang.
func (l *Lab) cachedEngine(key string, build func() (*core.Engine, error)) (*core.Engine, error) {
	l.mu.Lock()
	if e, ok := l.engines[key]; ok {
		l.mu.Unlock()
		return e, nil
	}
	if c, ok := l.building[key]; ok {
		l.mu.Unlock()
		<-c.done
		return c.e, c.err
	}
	c := &buildCell{done: make(chan struct{})}
	l.building[key] = c
	l.mu.Unlock()
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.e, c.err = nil, fmt.Errorf("experiments: build %s panicked: %v", key, r)
			}
		}()
		c.e, c.err = build()
	}()
	l.mu.Lock()
	if c.err == nil {
		l.engines[key] = c.e
	}
	delete(l.building, key)
	l.mu.Unlock()
	close(c.done)
	return c.e, c.err
}

// engine builds (or returns cached) a full-scale engine.
func (l *Lab) engine(model, platform string, build int) *core.Engine {
	key := fmt.Sprintf("full/%s/%s/%d", model, platform, build)
	e, err := l.cachedEngine(key, func() (*core.Engine, error) {
		g := models.MustBuild(model)
		return core.Build(g, core.DefaultConfig(platformSpec(platform), build))
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: build %s: %v", key, err))
	}
	return e
}

// proxyGraph returns the model's numeric proxy, built once per Lab:
// BuildProxy embeds every class template through the extractor, and its
// callers only read the result (core.Build clones its input).
func (l *Lab) proxyGraph(model string) (*graph.Graph, error) {
	l.proxyMu.Lock()
	defer l.proxyMu.Unlock()
	if g, ok := l.proxies[model]; ok {
		return g, nil
	}
	g, err := models.BuildProxy(model, models.DefaultProxyOptions())
	if err != nil {
		return nil, err
	}
	l.proxies[model] = g
	return g, nil
}

// referenceE returns the model's proxy compiled as the FP32 reference
// (core.Reference), once per Lab beside the graph it runs.
func (l *Lab) referenceE(model string) (*core.Engine, error) {
	g, err := l.proxyGraph(model)
	if err != nil {
		return nil, err
	}
	l.proxyMu.Lock()
	defer l.proxyMu.Unlock()
	if r, ok := l.refs[model]; ok {
		return r, nil
	}
	r, err := core.Reference(g)
	if err != nil {
		return nil, err
	}
	l.refs[model] = r
	return r, nil
}

// reference is referenceE for the paper-table generators.
func (l *Lab) reference(model string) *core.Engine {
	r, err := l.referenceE(model)
	if err != nil {
		panic(err)
	}
	return r
}

// proxyEngineE builds (or returns cached) a numeric proxy engine,
// surfacing build failures as errors.
func (l *Lab) proxyEngineE(model, platform string, build int) (*core.Engine, error) {
	key := fmt.Sprintf("proxy/%s/%s/%d", model, platform, build)
	return l.cachedEngine(key, func() (*core.Engine, error) {
		g, err := l.proxyGraph(model)
		if err != nil {
			return nil, err
		}
		e, err := core.Build(g, core.DefaultConfig(platformSpec(platform), build))
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s: %w", key, err)
		}
		return e, nil
	})
}

// proxyEngine is proxyEngineE for the paper-table generators, whose
// model set is static and trusted.
func (l *Lab) proxyEngine(model, platform string, build int) *core.Engine {
	e, err := l.proxyEngineE(model, platform, build)
	if err != nil {
		panic(err)
	}
	return e
}

// benignSet lazily synthesizes the benign dataset, once.
func (l *Lab) benignSet() []dataset.Sample {
	l.benignOnce.Do(func() {
		l.benign = dataset.Benign(dataset.DefaultBenign(l.Opts.BenignPerClass))
	})
	return l.benign
}

// advSet lazily synthesizes the adversarial dataset, once.
func (l *Lab) advSet() []dataset.AdversarialSample {
	l.advOnce.Do(func() {
		cfg := dataset.DefaultAdversarial(l.Opts.AdvPerClass)
		cfg.Types = l.Opts.AdvTypes
		l.adv = dataset.Adversarial(cfg)
	})
	return l.adv
}

func (l *Lab) cachedPred(key predKey) ([]int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.preds[key]
	return p, ok
}

func (l *Lab) setPred(key predKey, p []int) {
	l.mu.Lock()
	l.preds[key] = p
	l.mu.Unlock()
}

// program returns the representative of e's numeric program: the first
// engine this Lab classified that computes exactly what e computes
// (core.Engine.SameNumerics), e itself when none has. The answer is
// remembered: SameNumerics compares weights bit for bit, and each of
// Tables IV–VI asks about all three tables' engines.
func (l *Lab) program(e *core.Engine) *core.Engine {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r, ok := l.repOf[e]; ok {
		return r
	}
	r := e
	for _, p := range l.programs {
		if p.SameNumerics(e) {
			r = p
			break
		}
	}
	if r == e {
		l.programs = append(l.programs, e)
	}
	l.repOf[e] = r
	return r
}

// classifyAllE returns, by the index of es, each engine's argmax over
// images; es may mix built engines and references. Predictions are
// cached per (numeric program, image set), and the programs with no run
// over images yet run as one core.Group, so a prefix they share runs
// once per image. Images fan out across the lab's workers; predictions
// land by index and the surfaced error is the lowest-indexed image's, so
// the result is the serial loop's.
func (l *Lab) classifyAllE(es []*core.Engine, images []*tensor.Tensor) ([][]int, error) {
	out := make([][]int, len(es))
	if len(images) == 0 {
		return out, nil
	}
	if todo := l.pending(es, images); len(todo) > 0 {
		g := core.NewGroup(todo...)
		preds := make([][]int, len(todo))
		for k := range preds {
			preds[k] = make([]int, len(images))
		}
		err := fanout.ForEach(l.workers(), len(images), func(i int) error {
			o, err := g.Infer(images[i])
			if err != nil {
				return fmt.Errorf("experiments: image %d: %w", i, err)
			}
			for k, outs := range o {
				preds[k][i] = outs[0].Argmax()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k, r := range todo {
			l.setPred(predKey{r, images[0], len(images)}, preds[k])
		}
	}
	for i, e := range es {
		out[i], _ = l.cachedPred(predKey{l.program(e), images[0], len(images)})
	}
	return out, nil
}

// pending returns the representatives of es' programs that have no
// cached run over images, once each, in the order es first names them:
// the members of the group classifyAllE runs.
func (l *Lab) pending(es []*core.Engine, images []*tensor.Tensor) []*core.Engine {
	var todo []*core.Engine
	for _, e := range es {
		r := l.program(e)
		if _, ok := l.cachedPred(predKey{r, images[0], len(images)}); !ok && !slices.Contains(todo, r) {
			todo = append(todo, r)
		}
	}
	return todo
}

// classifyAll is classifyAllE for the paper-table generators, whose
// static model/dataset combinations cannot fail inference.
func (l *Lab) classifyAll(es []*core.Engine, images []*tensor.Tensor) [][]int {
	p, err := l.classifyAllE(es, images)
	if err != nil {
		panic(err)
	}
	return p
}

// classifyE runs one engine over images, surfacing inference failures
// as errors.
func (l *Lab) classifyE(e *core.Engine, images []*tensor.Tensor) ([]int, error) {
	p, err := l.classifyAllE([]*core.Engine{e}, images)
	if err != nil {
		return nil, err
	}
	return p[0], nil
}

// table is a minimal text-table renderer for paper-style output.
type table struct {
	title  string
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	dashes := make([]string, len(widths))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	line(dashes)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
