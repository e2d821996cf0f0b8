package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockorder flags a sync.Mutex/RWMutex held across a blocking operation:
// a channel send/receive, a blocking select, a range over a channel, a
// sync.WaitGroup/Cond wait, time.Sleep, network I/O, or a call whose
// static call graph reaches one of those. This is the bug class that
// freezes a serving process: the request path blocks while holding the
// state lock, and every health probe and reader queues up behind it.
//
// Known limitations (documented in DESIGN.md): lock regions are computed
// by source-order Lock/Unlock pairing per receiver expression (a defer
// extends the region to the function end); blocking inside deferred
// closures and stored function values is not attributed to the enclosing
// region; lock-ordering inversions between two mutexes are out of scope.

// DefaultBlockingFuncs are serving entry points treated as blocking even
// if the call-graph walk cannot prove it — each one serializes a whole
// simulated inference, so holding any lock across them stalls the
// process for a full request.
var DefaultBlockingFuncs = []string{
	"(*edgeinfer/internal/serve.Executor).DoBatchCtx",
	"(*edgeinfer/internal/serve.Pool).DoBatchCtx",
}

// LockOrder returns the lock-across-blocking analyzer. extraBlocking
// names functions treated as blocking regardless of what the call-graph
// walk finds (see DefaultBlockingFuncs).
func LockOrder(extraBlocking []string) *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "forbid a sync.Mutex/RWMutex held across a blocking operation",
		Run: func(m *Module, r *Reporter) {
			runLockOrder(m, extraBlocking, r)
		},
	}
}

const (
	evLock = iota + 1
	evUnlock
	evDeferUnlock
)

type lockEvent struct {
	pos  token.Pos
	key  string
	kind int
}

// blockItem is one potentially blocking site in a function body: either
// a direct operation (desc set) or a call into the module (callee set).
type blockItem struct {
	pos    token.Pos
	desc   string
	callee string
}

type lockFacts struct {
	events  []lockEvent
	items   []blockItem
	bodyEnd token.Pos
}

func runLockOrder(m *Module, extraBlocking []string, r *Reporter) {
	ix := m.funcs()
	facts := map[string]*lockFacts{}
	direct := map[string]witness{}
	callees := map[string][]string{}
	for _, id := range extraBlocking {
		direct[id] = witness{why: "serving entry point (serializes a full request)"}
	}
	for _, id := range ix.ids {
		f := scanLockFacts(m, ix.decls[id])
		facts[id] = f
		var edges []string
		for _, it := range f.items {
			if it.desc == "" {
				edges = append(edges, it.callee)
			} else if _, ok := direct[id]; !ok {
				direct[id] = witness{why: it.desc}
			}
		}
		callees[id] = distinct(edges)
	}
	blocking := propagate(ix.ids, direct, callees)

	for _, id := range ix.ids {
		f := facts[id]
		reported := map[token.Pos]bool{}
		for _, reg := range lockRegions(f) {
			for _, it := range f.items {
				if it.pos <= reg.start || it.pos >= reg.end || reported[it.pos] {
					continue
				}
				if it.desc != "" {
					reported[it.pos] = true
					r.Report(Error, it.pos, "%s held across %s", reg.key, it.desc)
				} else if _, ok := blocking[it.callee]; ok {
					reported[it.pos] = true
					r.Report(Error, it.pos, "%s held across blocking call: %s",
						reg.key, renderChain(blocking, it.callee))
				}
			}
		}
	}
}

// scanLockFacts walks one function body collecting lock events and
// potentially blocking sites. Goroutine launches and stored closures run
// outside the function's own extent and are skipped; immediately invoked
// literals are part of it.
func scanLockFacts(m *Module, d *declInfo) *lockFacts {
	info := d.pkg.Info
	f := &lockFacts{bodyEnd: d.fd.Body.End()}
	commOp := map[ast.Node]bool{} // comm statements subsumed by their select's verdict
	inspectWithStack(d.fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if !funcLitInvokedInline(stack, n) {
				return false
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					if cc.Comm == nil {
						hasDefault = true
					} else {
						commOp[cc.Comm] = true
					}
				}
			}
			if !hasDefault {
				f.items = append(f.items, blockItem{pos: n.Pos(), desc: "blocking select"})
			}
		case *ast.SendStmt:
			if !underCommOp(stack, commOp) {
				f.items = append(f.items, blockItem{pos: n.Pos(), desc: "channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !underCommOp(stack, commOp) {
				f.items = append(f.items, blockItem{pos: n.Pos(), desc: "channel receive"})
			}
		case *ast.RangeStmt:
			if isChanExpr(info, n.X) {
				f.items = append(f.items, blockItem{pos: n.X.Pos(), desc: "range over a channel"})
			}
		case *ast.DeferStmt:
			// Deferred unlocks extend the region to the function end.
			// Blocking inside other deferred calls runs at exit and is out
			// of scope (documented limitation).
			recordDeferUnlocks(info, n, f)
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				if desc := blockingStdlibDesc(fn); desc != "" {
					f.items = append(f.items, blockItem{pos: n.Pos(), desc: desc})
					return true
				}
				if key, kind := syncLockCall(info, n); kind != 0 {
					f.events = append(f.events, lockEvent{pos: n.Pos(), key: key, kind: kind})
					return true
				}
			}
			for _, id := range m.callTargets(info, n) {
				f.items = append(f.items, blockItem{pos: n.Pos(), callee: id})
			}
		}
		return true
	})
	return f
}

// underCommOp reports whether a node sits inside a select comm statement
// (those are judged by the select's own default/no-default verdict).
func underCommOp(stack []ast.Node, commOp map[ast.Node]bool) bool {
	for _, a := range stack {
		if commOp[a] {
			return true
		}
	}
	return false
}

// recordDeferUnlocks registers `defer mu.Unlock()` (directly or inside a
// deferred closure) as region-extending unlock events.
func recordDeferUnlocks(info *types.Info, d *ast.DeferStmt, f *lockFacts) {
	if key, kind := syncLockCall(info, d.Call); kind == evUnlock {
		f.events = append(f.events, lockEvent{pos: d.Pos(), key: key, kind: evDeferUnlock})
		return
	}
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, kind := syncLockCall(info, call); kind == evUnlock {
				f.events = append(f.events, lockEvent{pos: d.Pos(), key: key, kind: evDeferUnlock})
			}
		}
		return true
	})
}

// syncLockCall classifies a call as a sync.Mutex/RWMutex lock or unlock
// on a receiver expression key. TryLock variants never block and are
// ignored.
func syncLockCall(info *types.Info, call *ast.CallExpr) (key string, kind int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0
	}
	switch recvTypeName(fn) {
	case "Mutex", "RWMutex":
	default:
		return "", 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return exprKey(sel.X), evLock
	case "Unlock", "RUnlock":
		return exprKey(sel.X), evUnlock
	}
	return "", 0
}

// blockingStdlibDesc describes a standard-library call that can block
// indefinitely ("" for everything else).
func blockingStdlibDesc(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			switch recvTypeName(fn) {
			case "WaitGroup":
				return "sync.WaitGroup.Wait"
			case "Cond":
				return "sync.Cond.Wait"
			}
		}
	case "net", "net/http":
		return fn.Pkg().Path() + "." + fn.Name() + " (network I/O)"
	}
	return ""
}

// recvTypeName returns the bare receiver type name of a method ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isChanExpr reports whether an expression has channel type.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// lockSpan is one region of a function body during which a lock key is
// held.
type lockSpan struct {
	start, end token.Pos
	key        string
}

// lockRegions pairs lock events into held regions: a lock matches the
// next unlock of the same key in source order; a deferred unlock (or a
// lock with no unlock at all) extends the region to the function end.
func lockRegions(f *lockFacts) []lockSpan {
	events := append([]lockEvent(nil), f.events...)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	deferred := map[string]bool{}
	for _, ev := range events {
		if ev.kind == evDeferUnlock {
			deferred[ev.key] = true
		}
	}
	var regions []lockSpan
	pending := map[string][]token.Pos{}
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			if deferred[ev.key] {
				regions = append(regions, lockSpan{start: ev.pos, end: f.bodyEnd, key: ev.key})
			} else {
				pending[ev.key] = append(pending[ev.key], ev.pos)
			}
		case evUnlock:
			if q := pending[ev.key]; len(q) > 0 {
				regions = append(regions, lockSpan{start: q[len(q)-1], end: ev.pos, key: ev.key})
				pending[ev.key] = q[:len(q)-1]
			}
		}
	}
	keys := make([]string, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, p := range pending[k] {
			regions = append(regions, lockSpan{start: p, end: f.bodyEnd, key: k})
		}
	}
	return regions
}
