package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// A Group must be indistinguishable from calling Infer on each member in
// order: the same bits, the same first error, and outputs the caller
// owns. The tests hold it to that loop on the paper's engines and on
// small graphs built to put the awkward steps right at a fork point.

// loopInfer is what Group.Infer stands in for.
func loopInfer(es []*Engine, x *tensor.Tensor) ([][]*tensor.Tensor, error) {
	outs := make([][]*tensor.Tensor, len(es))
	for i, e := range es {
		o, err := e.Infer(x)
		if err != nil {
			return nil, err
		}
		outs[i] = o
	}
	return outs, nil
}

// matchesLoop runs x through g and through the loop over es: equal bits
// or equal error text, and no output tensor or buffer shared between two
// members. It returns the group's outputs and the loop's.
func matchesLoop(t *testing.T, label string, g *Group, es []*Engine, x *tensor.Tensor) (got, want [][]*tensor.Tensor) {
	t.Helper()
	want, wantErr := loopInfer(es, x)
	got, gotErr := g.Infer(x)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: group error %v, loop error %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return nil, nil
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d members answered, want %d", label, len(got), len(want))
	}
	seen := map[*float32]string{}
	for i := range want {
		sameBitsBatch(t, fmt.Sprintf("%s member %d (%s)", label, i, es[i].Key()), got[i], want[i])
		for oi, o := range got[i] {
			if prev, ok := seen[&o.Data[0]]; ok {
				t.Fatalf("%s: member %d output %d shares its buffer with %s", label, i, oi, prev)
			}
			seen[&o.Data[0]] = fmt.Sprintf("member %d output %d", i, oi)
		}
	}
	return got, want
}

// proxyEngines builds every classifier proxy on both platforms at build
// ids 1–3, each model followed by its un-optimized reference.
func proxyEngines(t *testing.T) []*Engine {
	t.Helper()
	var es []*Engine
	for _, name := range []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"} {
		g, err := models.BuildProxy(name, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range gpusim.Platforms() {
			for id := 1; id <= 3; id++ {
				e, err := Build(g, DefaultConfig(spec, id))
				if err != nil {
					t.Fatal(err)
				}
				es = append(es, e)
			}
		}
		r, err := Reference(g)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, r)
	}
	return es
}

// TestGroupMatchesEachEngine: the five proxies × NX/AGX × builds 1–3 and
// their references, as one group in two member orders, over the
// benchmark corpus. Each image's outputs are checked again after the
// next image ran, so a context slot leaking into a result shows.
func TestGroupMatchesEachEngine(t *testing.T) {
	es := proxyEngines(t)
	reversed := make([]*Engine, len(es))
	for i, e := range es {
		reversed[len(es)-1-i] = e
	}
	corpus, step := benchCorpus(), 1
	if testing.Short() || raceEnabled {
		step = 9
	}
	for oi, members := range [][]*Engine{es, reversed} {
		g := NewGroup(members...)
		saved, total := 0, 0
		for i, e := range members {
			_, from := g.Fork(i)
			saved += from
			total += len(e.Graph.Layers)
		}
		if saved == 0 {
			t.Fatalf("order %d: no member shares a step with another", oi)
		}
		t.Logf("order %d: %d members run %d of %d steps per image", oi, len(members), total-saved, total)
		var prev, prevWant [][]*tensor.Tensor
		for i := 0; i < len(corpus); i += step {
			got, want := matchesLoop(t, fmt.Sprintf("order %d image %d", oi, i), g, members, corpus[i])
			for k := range prev {
				sameBitsBatch(t, fmt.Sprintf("order %d member %d, the image before %d, after it ran", oi, k, i), prev[k], prevWant[k])
			}
			prev, prevWant = got, want
			if oi == 1 {
				i += 3 * step // the second order samples
			}
		}
	}
}

// forkNet is a reference over a small chain: c1 → r1 → c2 → r2, then
// tail. Every forkNet draws its weights from one stream in layer order,
// so two of them agree on the chain: their prefixes are one program.
func forkNet(t *testing.T, shape [4]int, tail func(b *graph.Builder), outputs ...string) *Engine {
	t.Helper()
	b := graph.NewBuilder("forknet", shape)
	b.Conv("c1", 6, 3, 1, 1).ReLU("r1").Conv("c2", 6, 3, 1, 1).ReLU("r2")
	tail(b)
	b.G.Outputs = outputs
	g := b.Done()
	materialize(t, g)
	r, err := Reference(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// gapHead closes a forkNet with a global pool and an fc of units.
func gapHead(units int) func(*graph.Builder) {
	return func(b *graph.Builder) { b.GlobalAvgPool("gap").FC(fmt.Sprintf("fc%d", units), units) }
}

// TestGroupHostileForks puts at and around each fork point what the
// schedule treats specially — an escaping dropout, a view flatten, a
// skip connection — and the members that must never share: another
// input shape, a built engine beside a reference, a timing-only engine.
func TestGroupHostileForks(t *testing.T) {
	shape := [4]int{1, 4, 8, 8}
	base := forkNet(t, shape, gapHead(5), "fc5")
	timing, err := Build(models.MustBuild("resnet18"), nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if timing.Numeric {
		t.Fatal("full-scale graph should build timing-only")
	}
	built, err := Build(base.Graph, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	other := forkNet(t, shape, gapHead(5), "fc5")
	cases := []struct {
		name    string
		members []*Engine
		// forks[i] is member i's (parent, from); check runs on the
		// members before the group compiles them.
		forks [][2]int
		check func(es []*Engine)
	}{
		// The escaping dropout makes its producer r2 escape, so r2 owns no
		// slot to copy into: the fork moves back a step and r2 is rerun.
		{"escaping-dropout", []*Engine{base, forkNet(t, shape, func(b *graph.Builder) { b.Dropout("drop") }, "drop")},
			[][2]int{{-1, 0}, {0, 4}}, func(es []*Engine) {
				if s := es[1].plan.steps; !s[4].escapes || s[4].out >= 0 {
					t.Fatal("r2 should escape into the dropout output")
				}
			}},
		{"dropout-after-cut", []*Engine{base, forkNet(t, shape, func(b *graph.Builder) { b.Dropout("drop").GlobalAvgPool("gap").FC("fc5", 5) }, "fc5")},
			[][2]int{{-1, 0}, {0, 5}}, nil},
		// r2's slot dies at the flatten, which reshapes it in place: the
		// boundary must be in that slot, not in the parent's.
		{"view-flatten-after-cut", []*Engine{base, forkNet(t, shape, func(b *graph.Builder) { b.Flatten("flat").FC("fcflat", 5) }, "fcflat")},
			[][2]int{{-1, 0}, {0, 5}}, func(es []*Engine) {
				if !es[1].plan.steps[5].view {
					t.Fatal("the flatten after the cut is not a view")
				}
			}},
		// r1 is read again by the add, so no cut lies between c2 and the
		// add; the members first differ at c3.
		{"skip-spans-prefix", []*Engine{
			forkNet(t, shape, func(b *graph.Builder) {
				b.Conv("c3", 6, 3, 1, 1).AddJoin("res", "r1").GlobalAvgPool("gap").FC("fc5", 5)
			}, "fc5"),
			forkNet(t, shape, func(b *graph.Builder) {
				b.Conv("c3", 6, 1, 1, 0).AddJoin("res", "r1").GlobalAvgPool("gap").FC("fc5", 5)
			}, "fc5"),
		}, [][2]int{{-1, 0}, {0, 3}}, func(es []*Engine) {
			if n := es[0].sharedPrefix(es[1]); n != 5 {
				t.Fatalf("shared prefix %d steps, want 5 (data, c1, r1, c2, r2)", n)
			}
		}},
		{"another-input-shape", []*Engine{base, forkNet(t, [4]int{1, 4, 10, 10}, gapHead(5), "fc5")},
			[][2]int{{-1, 0}, {-1, 0}}, nil},
		// other is base's program: it forks at base's last cut.
		{"reference-beside-built", []*Engine{built, base, other},
			[][2]int{{-1, 0}, {-1, 0}, {1, 6}}, nil},
		{"timing-only", []*Engine{base, timing, other},
			[][2]int{{-1, 0}, {-1, 0}, {0, 6}}, nil},
		{"timing-only-first", []*Engine{timing, base},
			[][2]int{{-1, 0}, {-1, 0}}, nil},
	}
	xs := batchInputs(t, "group-hostile-x", 3)
	for _, tc := range cases {
		if tc.check != nil {
			tc.check(tc.members)
		}
		g := NewGroup(tc.members...)
		for i, want := range tc.forks {
			if p, from := g.Fork(i); p != want[0] || from != want[1] {
				t.Errorf("%s: member %d forks from %d at %d, want %d at %d", tc.name, i, p, from, want[0], want[1])
			}
		}
		for i, x := range xs {
			matchesLoop(t, fmt.Sprintf("%s image %d", tc.name, i), g, tc.members, x)
		}
	}
	// An image of the other shape: the second member's reference rejects
	// it, so the group must too, with that member's error.
	wide := forkNet(t, [4]int{1, 4, 10, 10}, gapHead(5), "fc5")
	if _, err := NewGroup(base, wide).Infer(xs[0]); err == nil || !strings.Contains(err.Error(), "input shape") {
		t.Fatalf("an input of another member's shape: %v", err)
	}
}

// TestGroupErrorParity wrecks members the way a hostile plan can, in a
// member's own steps and in a step two members share, and holds the
// group to the loop's first error.
func TestGroupErrorParity(t *testing.T) {
	shape := [4]int{1, 4, 8, 8}
	layer := func(e *Engine, name string) *graph.Layer { return e.Graph.Layer(name) }
	cases := []struct {
		name  string
		wreck func(a, b *Engine) // a is member 0, b member 1 (forked from a)
		x     *tensor.Tensor     // nil: a well-formed image
	}{
		{"own-conv-no-weights", func(_, b *Engine) { delete(layer(b, "c3").Weights, "w") }, nil},
		{"own-fc-zero-units", func(_, b *Engine) { layer(b, "fc7").OutUnits = 0 }, nil},
		{"shared-conv-zero-stride", func(a, b *Engine) {
			layer(a, "c2").Conv.Stride = 0
			layer(b, "c2").Conv.Stride = 0
		}, nil},
		{"parent-fails-after-fork", func(a, _ *Engine) { layer(a, "fc5").OutUnits = 0 }, nil},
		{"nil-input", func(*Engine, *Engine) {}, nil},
		{"input-of-another-shape", func(*Engine, *Engine) {}, tensor.New(1, 4, 9, 9)},
	}
	xs := batchInputs(t, "group-error-x", 1)
	for _, tc := range cases {
		a := forkNet(t, shape, gapHead(5), "fc5")
		b := forkNet(t, shape, func(b *graph.Builder) { b.Conv("c3", 6, 3, 1, 1).GlobalAvgPool("gap").FC("fc7", 7) }, "fc7")
		tc.wreck(a, b)
		a.plan, b.plan = compile(a), compile(b)
		for i := range a.plan.steps {
			a.plan.steps[i].ref = true
		}
		for i := range b.plan.steps {
			b.plan.steps[i].ref = true
		}
		members := []*Engine{a, b}
		g := NewGroup(members...)
		if p, _ := g.Fork(1); p != 0 {
			t.Fatalf("%s: the members share nothing", tc.name)
		}
		x := tc.x
		if x == nil && tc.name != "nil-input" {
			x = xs[0]
		}
		want, wantErr := loopInfer(members, x)
		if wantErr == nil && tc.name != "parent-fails-after-fork" {
			t.Fatalf("%s: the wreck is not an error (%d outputs)", tc.name, len(want))
		}
		matchesLoop(t, tc.name, g, members, x)
	}
}

// TestGroupSteadyStateAllocs: once the members' contexts exist, a group
// call allocates what the caller receives — one slice of results, then
// per member an outputs slice and its output (header and data) — where
// separate Infer calls pay 4 per member.
func TestGroupSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	defer kernels.SetWorkers(kernels.SetWorkers(1))
	var es []*Engine
	for _, model := range []string{"alexnet", "resnet18", "vgg16"} {
		g, err := models.BuildProxy(model, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range gpusim.Platforms() {
			e, err := Build(g, DefaultConfig(spec, 1))
			if err != nil {
				t.Fatal(err)
			}
			es = append(es, e)
		}
		r, err := Reference(g)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, r)
	}
	s := es[0].Graph.InputShape
	x := tensor.New(s[0], s[1], s[2], s[3])
	g := NewGroup(es...)
	group := func() {
		if _, err := g.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	separate := func() {
		if _, err := loopInfer(es, x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // create the contexts
		group()
	}
	allocs := testing.AllocsPerRun(20, group)
	loop := testing.AllocsPerRun(5, separate) - 1 // loopInfer's own result slice
	n := float64(len(es))
	if allocs > 1+3*n {
		t.Errorf("a group of %d allocates %.1f objects per image in steady state, budget %.0f", len(es), allocs, 1+3*n)
	}
	if loop != 4*n {
		t.Errorf("separate Infer calls allocate %.1f objects per image, want %.0f", loop, 4*n)
	}
	t.Logf("%d engines: group %.1f allocs per image, separate Infer calls %.1f", len(es), allocs, loop)
}

// TestGroupConcurrentCalls: the Lab calls one group from every worker at
// once; each call checks out its own contexts, so answers stay the
// loop's. Run it under -race.
func TestGroupConcurrentCalls(t *testing.T) {
	var es []*Engine
	for _, model := range []string{"alexnet", "resnet18"} {
		g, err := models.BuildProxy(model, models.DefaultProxyOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range gpusim.Platforms() {
			e, err := Build(g, DefaultConfig(spec, 1))
			if err != nil {
				t.Fatal(err)
			}
			es = append(es, e)
		}
	}
	g := NewGroup(es...)
	xs := benchCorpus()[:8]
	want := make([][][]*tensor.Tensor, len(xs))
	for i, x := range xs {
		var err error
		if want[i], err = loopInfer(es, x); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range xs {
				i = (i + w) % len(xs)
				got, err := g.Infer(xs[i])
				if err != nil {
					errs[w] = err
					return
				}
				for k := range got {
					if !sameTensors(got[k], want[i][k]) {
						errs[w] = fmt.Errorf("worker %d image %d member %d differs from the loop", w, i, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameTensors reports equal shapes and bits, pairwise.
func sameTensors(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameTensor(a[i], b[i]) {
			return false
		}
	}
	return true
}
