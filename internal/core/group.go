package core

import (
	"slices"
	"sort"

	"edgeinfer/internal/tensor"
)

// Shared prefixes (DESIGN §5, "Shared prefixes"). Engines built from
// one proxy differ only where their tactics differ, and the proxies
// begin with the same stem, so a set of engines read over the same
// images repeats the same leading steps once per engine. A Group
// compiles the set into a prefix tree: each member forks from an earlier
// one at a pipeline cut (StageCuts) inside their shared prefix, and per
// image a shared step runs once, in the earliest member that has it.

// groupStack is the widest group whose per-call context table lives on
// the stack; a wider one allocates it.
const groupStack = 32

// Group runs one image through a set of engines, each shared prefix
// once. It is read-only after NewGroup, so concurrent Infer calls are
// safe: each checks out its own execution contexts from the members.
type Group struct {
	members []*Engine
	// parent is the member whose run hands this one its boundary
	// activation, -1 for a root; from is the step the member's own run
	// starts at (its fork point, 0 for a root).
	parent, from []int
	// forks lists, per member, the members it hands a boundary to, by
	// ascending fork point.
	forks [][]int
}

// NewGroup compiles es into a prefix tree. Each member's parent is the
// earliest of the earlier members with the latest fork point: the
// greatest position that is a StageCuts cut of both, lies within their
// shared prefix (sharedPrefix — SameNumerics' per-step test, input shape
// included) and whose boundary step owns a slot in the member's
// schedule. That parent runs the step before the cut itself or is handed
// it: were its own fork later than the cut, its parent would share the
// cut too, and being earlier it would have been chosen. A timing-only
// member shares nothing.
func NewGroup(es ...*Engine) *Group {
	n := len(es)
	g := &Group{members: es, parent: make([]int, n), from: make([]int, n), forks: make([][]int, n)}
	cuts := make([][]int, n)
	for i, e := range es {
		if e.plan != nil {
			cuts[i] = e.StageCuts()
		}
	}
	for i, e := range es {
		g.parent[i] = -1
		for j := 0; j < i; j++ {
			if c := forkPoint(es[j], e, cuts[j], cuts[i]); c > g.from[i] {
				g.parent[i], g.from[i] = j, c
			}
		}
		if p := g.parent[i]; p >= 0 {
			g.forks[p] = append(g.forks[p], i)
		}
	}
	for _, f := range g.forks {
		sort.SliceStable(f, func(a, b int) bool { return g.from[f[a]] < g.from[f[b]] })
	}
	return g
}

// forkPoint returns the greatest cut c, of a's cuts ca and b's cuts cb,
// at which b can take over from a: steps [0,c) are shared, and b's step
// c-1 writes a slot of b's context that the boundary is copied into (0:
// there is none). A cut lets no other activation cross it, so the
// boundary is all b's remaining steps read of the prefix.
func forkPoint(a, b *Engine, ca, cb []int) int {
	shared := a.sharedPrefix(b)
	for k := len(cb) - 1; k >= 0; k-- {
		if c := cb[k]; c <= shared && b.plan.steps[c-1].out >= 0 {
			if _, ok := slices.BinarySearch(ca, c); ok {
				return c
			}
		}
	}
	return 0
}

// Fork reports member i's place in the tree: the member that hands it
// its boundary activation (-1 for a root) and the step its own run
// starts at, so it runs len(Graph.Layers) - from steps per image.
func (g *Group) Fork(i int) (parent, from int) { return g.parent[i], g.from[i] }

// Infer runs x through every member and returns, by member, exactly what
// calling Infer on each member in order returns; it stops at the first
// error, which is the one that loop would return. A shared step runs
// once: when the parent's run reaches a fork point, its boundary
// activation is copied into the child's slot, and the child's own run
// later starts there.
//
//rt:hotpath
func (g *Group) Infer(x *tensor.Tensor) (outs [][]*tensor.Tensor, err error) {
	var stack [groupStack]*execCtx
	ctxs := stack[:]
	if len(g.members) > len(ctxs) {
		ctxs = make([]*execCtx, len(g.members))
	}
	ctxs = ctxs[:len(g.members)]
	for i, e := range g.members {
		if e.plan != nil {
			ctxs[i] = e.plan.checkout(1)
		}
	}
	defer g.checkin(ctxs)
	xs := [1]*tensor.Tensor{x}
	outs = make([][]*tensor.Tensor, len(g.members))
	for i, e := range g.members {
		if err := e.runnable(xs[:]); err != nil {
			return nil, err
		}
		if err := g.run(i, ctxs, xs[:]); err != nil {
			return nil, err
		}
		outs[i] = ctxs[i].results(e.plan.outs)
	}
	return outs, nil
}

// run executes member i's own steps in its context, handing each child
// the boundary activation as its fork point is reached.
func (g *Group) run(i int, ctxs []*execCtx, xs []*tensor.Tensor) error {
	e, c := g.members[i], ctxs[i]
	from := g.from[i]
	for _, k := range g.forks[i] {
		if err := e.runSteps(c, xs, from, g.from[k], nil, nil); err != nil {
			return err
		}
		from = g.from[k]
		ctxs[k].seed(&g.members[k].plan.steps[from-1], from-1, c.acts[from-1])
	}
	return e.runSteps(c, xs, from, len(e.plan.steps), nil, nil)
}

// seed writes a fork's boundary activation t as step li of this context
// would have: into the step's slot, so every later step finds the memory
// its own run would have left there.
func (c *execCtx) seed(s *step, li int, t *tensor.Tensor) {
	y := &c.bufs[s.out]
	y.Resize(t.N, t.C, t.H, t.W)
	copy(y.Data, t.Data)
	c.acts[li] = y
}

// checkin returns each member's context to its engine.
func (g *Group) checkin(ctxs []*execCtx) {
	for i, c := range ctxs {
		if c != nil {
			g.members[i].plan.checkin(c)
		}
	}
}
