package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInterfaceCallsReachImplementations: lockorder and goleak follow a
// call through a module-declared interface to every module type that
// implements it, as panicpath does, rather than stopping at the
// interface's bodiless method.
func TestInterfaceCallsReachImplementations(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"x/x.go": `package x

import "sync"

type Waiter interface{ Wait() }

type recv struct{ c chan int }

func (w recv) Wait() { <-w.c }

type Q struct {
	mu sync.Mutex
	w  Waiter
}

func (q *Q) Hold() {
	q.mu.Lock()
	q.w.Wait()
	q.mu.Unlock()
}

type Pump interface{ Run() }

type spin struct{}

func (spin) Run() {
	for {
	}
}

func Start(p Pump) {
	go func() { p.Run() }()
}
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := RunAll(m, []*Analyzer{LockOrder(nil), GoLeak(nil)})
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	want := []string{
		"lockorder: q.mu held across blocking call: (x.recv).Wait: channel receive",
		"goleak: goroutine has no stop path: (x.spin).Run: endless for loop with no return, break, or panic",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestWalkFromDiscoveryOrder: the walk is breadth first, visits each
// function once, and credits a function to the first function that
// discovered it, so the chains panicpath and hotalloc render are
// shortest paths with ties broken by edge order.
func TestWalkFromDiscoveryOrder(t *testing.T) {
	edges := map[string][]string{
		"a": {"b", "c"},
		"b": {"d"},
		"c": {"e", "d"},
		"e": {"d", "a"},
	}
	var got []string
	walkFrom([]string{"a", "a", "z"}, func(id string, parent map[string]string) []string {
		got = append(got, chain(parent, id))
		return edges[id]
	})
	want := []string{"a", "z", "a -> b", "a -> c", "a -> b -> d", "a -> c -> e"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("visits %q, want %q", got, want)
	}
}
