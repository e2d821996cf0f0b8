package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DefaultPanicRoots are the entry points that process untrusted input —
// plan bytes off disk, inference requests off the wire. A panic anywhere
// in their call graphs turns a malformed request into a crashed server,
// so every failure on these paths must be a returned error.
var DefaultPanicRoots = []string{
	"edgeinfer/internal/core.Load",
	"edgeinfer/internal/core.LoadTimingCache",
	"edgeinfer/internal/core.VerifyPlanData",
	"(*edgeinfer/internal/core.Engine).Infer",
	"(*edgeinfer/internal/core.Engine).InferBatchCtx",
	"(*edgeinfer/internal/serve.Pool).DoBatchCtx",
	// The network front-end: the HTTP handler parses untrusted request
	// bodies and the batcher goroutine serves them.
	"(*edgeinfer/internal/netserve.Server).handleInfer",
	"(*edgeinfer/internal/netserve.modelQueue).run",
	// The learned latency predictor: PredictSec sits inside every pruned
	// build's tuning loop — a panic there turns a degenerate launch into
	// a crashed build instead of a full-menu fallback.
	"(*edgeinfer/internal/latpred.Model).PredictSec",
}

// PanicPath returns the analyzer that walks the static call graph from
// the given roots and reports every reachable panic site. Functions that
// install a defer/recover barrier stop the walk: panics below them are
// converted to errors at runtime. Calls through interface methods are
// resolved to every module type implementing the interface; calls
// through plain function values are not traversed.
func PanicPath(roots []string) *Analyzer {
	return &Analyzer{
		Name: "panicpath",
		Doc:  "forbid panics reachable from plan-loading and request-serving entry points",
		Run: func(m *Module, r *Reporter) {
			runPanicPath(m, roots, r)
		},
	}
}

func runPanicPath(m *Module, roots []string, r *Reporter) {
	decls := m.funcs().decls
	walkFrom(roots, func(id string, parent map[string]string) []string {
		d := decls[id]
		if d == nil {
			return nil
		}
		panics, callees, barrier := analyzeFunc(m, d)
		if barrier {
			return nil
		}
		for _, pos := range panics {
			r.Report(Error, pos, "panic reachable from entry point: %s", chain(parent, id))
		}
		return callees
	})
}

// chain renders the call path root → ... → id for diagnostics.
func chain(parent map[string]string, id string) string {
	var path []string
	for cur := id; cur != ""; cur = parent[cur] {
		path = append(path, shortFuncID(cur))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return strings.Join(path, " -> ")
}

// shortFuncID drops the package-path prefix from a function ID for
// readable diagnostics: "(*edgeinfer/internal/core.Engine).Infer"
// becomes "(*core.Engine).Infer".
func shortFuncID(id string) string {
	i := strings.LastIndex(id, "/")
	if i < 0 {
		return id
	}
	prefix := ""
	if strings.HasPrefix(id, "(*") {
		prefix = "(*"
	} else if strings.HasPrefix(id, "(") {
		prefix = "("
	}
	return prefix + id[i+1:]
}

// analyzeFunc collects a function's panic sites, its sorted outgoing
// call edges and whether it installs a recover barrier (panics below a
// barrier are caught). Function-literal bodies are treated as part of
// the enclosing function: deferred and stored closures may run within
// its dynamic extent.
func analyzeFunc(m *Module, d *declInfo) (panics []token.Pos, callees []string, barrier bool) {
	info := d.pkg.Info
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if deferRecovers(info, n) {
				barrier = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin && id.Name == "panic" {
					panics = append(panics, n.Pos())
					return true
				}
			}
			callees = append(callees, m.callTargets(info, n)...)
		}
		return true
	})
	return panics, distinct(callees), barrier
}

// deferRecovers reports whether the defer statement installs a recover
// barrier: `defer recover()` or `defer func() { ... recover() ... }()`.
func deferRecovers(info *types.Info, d *ast.DeferStmt) bool {
	isRecover := func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "recover" {
			return false
		}
		_, builtin := info.Uses[id].(*types.Builtin)
		return builtin
	}
	if isRecover(d.Call) {
		return true
	}
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isRecover(call) {
			found = true
		}
		return !found
	})
	return found
}

// implementations resolves an interface method call to the concrete
// module methods that may satisfy it.
func implementations(named []*types.Named, iface *types.Interface, method string) []string {
	var out []string
	for _, n := range named {
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			continue
		}
		recv := types.Type(n)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(n)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, n.Obj().Pkg(), method)
		if f, ok := obj.(*types.Func); ok {
			out = append(out, funcID(f))
		}
	}
	sort.Strings(out)
	return out
}

// funcID canonicalizes a function as "pkgpath.Func",
// "(pkgpath.Type).Method" or "(*pkgpath.Type).Method".
func funcID(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := false
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = true
		}
		if n, ok := t.(*types.Named); ok {
			full := n.Obj().Name()
			if n.Obj().Pkg() != nil {
				full = n.Obj().Pkg().Path() + "." + full
			}
			if ptr {
				return "(*" + full + ")." + f.Name()
			}
			return "(" + full + ")." + f.Name()
		}
		return "(" + t.String() + ")." + f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}
