package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// pinnedFixtureReport is the full rendered report over testdata/module:
// every finding, then every suppression, with file paths relative to the
// fixture root. The marker test checks only (file, line, analyzer); this
// pin also holds each message and each transitive call chain, so a change
// to call resolution or to a walk's discovery order shows here.
var pinnedFixtureReport = []string{
	"internal/core/core.go:20:3: error: [panicpath] panic reachable from entry point: core.Load -> core.parse -> (core.strict).validate",
	"internal/core/core.go:37:3: error: [panicpath] panic reachable from entry point: core.Load -> core.parse",
	"internal/kernels/hot.go:16:9: error: [hotalloc] allocation on hot path kernels.Blend: make()",
	"internal/kernels/hot.go:30:9: error: [hotalloc] allocation on hot path kernels.Dispatch -> kernels.stage: make()",
	"internal/kernels/kernels.go:8:2: error: [determinism] import of math/rand in restricted package edgeinfer/internal/kernels; use internal/fixrand for seeded, reproducible randomness",
	"internal/kernels/kernels.go:15:9: error: [determinism] time.Since in restricted package edgeinfer/internal/kernels makes results depend on wall-clock",
	"internal/kernels/kernels.go:25:3: error: [determinism] append to out inside range over map leaks iteration order; sort the result or the keys first",
	"internal/kernels/kernels.go:44:3: error: [determinism] string concatenation into s inside range over map depends on iteration order",
	"internal/kernels/kernels.go:53:3: error: [determinism] assignment of map loop variable to last keeps an arbitrary iteration's value",
	"internal/kernels/kernels.go:63:3: error: [floatorder] float accumulation into sum inside range over map is order-dependent; iterate sorted keys instead",
	"internal/kernels/kernels.go:87:3: error: [floatorder] float accumulation into acc in Dot bypasses the kernel rounding discipline; fold partial sums through Numerics.roundTo/combine",
	"internal/kernels/kernels.go:121:3: error: [floatorder] float accumulation into total in Norm bypasses the kernel rounding discipline; fold partial sums through Numerics.roundTo/combine",
	"internal/netserve/netserve.go:18:2: error: [goleak] goroutine has no stop path: endless for loop with no return, break, or panic",
	"internal/netserve/netserve.go:28:2: error: [goleak] goroutine has no stop path: (*netserve.Batcher).pump: ranges over channel 'work' that no module code ever closes",
	"internal/serve/serve.go:34:2: error: [lockorder] q.mu held across channel send",
	"internal/serve/serve.go:42:2: error: [lockorder] q.mu held across time.Sleep",
	"internal/serve/serve.go:49:9: error: [lockorder] q.mu held across blocking call: (*serve.Executor).DoBatchCtx: serving entry point (serializes a full request)",
	"internal/serve/serve.go:56:2: error: [lockorder] q.mu held across blocking call: (*serve.Queue).drain: channel receive",
	`internal/serve/serve.go:100:9: error: [deadlineflow] request context "ctx" is dropped: (*serve.Queue).Run has a context-aware sibling (*serve.Queue).RunCtx`,
	"internal/util/util.go:18:2: error: [errcheck] util.Flush returns an error; result discarded",
	"internal/util/util.go:19:8: error: [errcheck] util.Flush returns an error; result discarded by defer",
	"internal/util/util.go:20:5: error: [errcheck] util.Flush returns an error; result discarded by go statement",
	"internal/util/util.go:21:5: error: [errcheck] error result of util.Pair assigned to blank identifier",
	"internal/util/util.go:44:3: error: [floatorder] float accumulation into total inside range over map is order-dependent; iterate sorted keys instead",
	"internal/core/core.go:74:3: allowed: [panicpath] panic reachable from entry point: (*core.Engine).Infer -> core.guarded (fixture proves suppression on a reachable panic)",
	"internal/kernels/hot.go:60:10: allowed: [hotalloc] allocation on hot path kernels.Traced: append growth on untrusted slice (fixture proves hot-path suppression with a reason)",
	"internal/kernels/kernels.go:140:9: allowed: [determinism] time.Now in restricted package edgeinfer/internal/kernels makes results depend on wall-clock (fixture proves trailing-directive suppression)",
	"internal/kernels/kernels.go:146:9: allowed: [determinism] time.Now in restricted package edgeinfer/internal/kernels makes results depend on wall-clock (fixture proves own-line directive covers the next line)",
	"internal/netserve/netserve.go:63:2: allowed: [goleak] goroutine has no stop path: endless for loop with no return, break, or panic (fixture proves process-lifetime goroutines can be sanctioned)",
	"internal/serve/serve.go:85:2: allowed: [lockorder] q.mu held across channel send (fixture proves compact-directive suppression)",
	`internal/serve/serve.go:111:9: allowed: [deadlineflow] request context "ctx" is dropped: (*serve.Queue).Run has a context-aware sibling (*serve.Queue).RunCtx (fixture: budget is checked before dispatch)`,
}

// TestFixtureReportPinned holds RunAll's rendered report over the fixture
// module to pinnedFixtureReport, line for line and in order.
func TestFixtureReportPinned(t *testing.T) {
	m := loadFixture(t)
	findings, suppressed := RunAll(m, fixtureAnalyzers())
	rel := func(path string) string {
		r, err := filepath.Rel(m.Dir, path)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.ToSlash(r)
	}
	var got []string
	for _, f := range findings {
		f.Pos.Filename = rel(f.Pos.Filename)
		got = append(got, f.String())
	}
	for _, s := range suppressed {
		s.Pos.Filename = rel(s.Pos.Filename)
		got = append(got, s.String())
	}
	if strings.Join(got, "\n") == strings.Join(pinnedFixtureReport, "\n") {
		return
	}
	for i := 0; i < max(len(got), len(pinnedFixtureReport)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(pinnedFixtureReport) {
			w = pinnedFixtureReport[i]
		}
		if g != w {
			t.Errorf("report line %d:\n got  %s\n want %s", i, g, w)
		}
	}
}
