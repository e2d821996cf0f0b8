package experiments

import (
	"reflect"
	"sync"
	"testing"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/graph"
)

// TestWorkerCountInvariance is the determinism gate for the parallel lab:
// every table must come out identical whether the per-image and per-model
// loops run serially or fanned out. Outputs are placed by index and kernel
// execution is bit-identical under any worker count, so this is exact
// equality, not tolerance.
func TestWorkerCountInvariance(t *testing.T) {
	// Smallest configuration that still walks every table's engines
	// through the per-image fan-out end to end, with three engines per
	// side so the adversarial set's group holds all of Tables IV–VI's
	// programs, and two corruption types so the set is not one type's;
	// the kernel-level bit-identity matrix lives in internal/kernels.
	opts := Options{
		BenignPerClass: 1,
		AdvPerClass:    1,
		AdvTypes:       []dataset.Corruption{dataset.GaussianNoise, dataset.Fog},
		Runs:           2,
		EnginesPerSide: 3,
	}
	serial := opts
	serial.Workers = 1
	fanned := opts
	fanned.Workers = 4

	s := NewLab(serial)
	f := NewLab(fanned)

	if got, want := s.Table3(), f.Table3(); !reflect.DeepEqual(got, want) {
		t.Errorf("Table3 differs between 1 and 4 workers:\n%+v\nvs\n%+v", got, want)
	}
	if got, want := s.Table4(), f.Table4(); !reflect.DeepEqual(got, want) {
		t.Errorf("Table4 differs between 1 and 4 workers:\n%+v\nvs\n%+v", got, want)
	}
	if got, want := s.Table5(), f.Table5(); !reflect.DeepEqual(got, want) {
		t.Errorf("Table5 differs between 1 and 4 workers:\n%+v\nvs\n%+v", got, want)
	}
	if got, want := s.Table6(), f.Table6(); !reflect.DeepEqual(got, want) {
		t.Errorf("Table6 differs between 1 and 4 workers:\n%+v\nvs\n%+v", got, want)
	}
}

// The proxy graph is built without proxyMu, so callers racing on a
// Lab's first use of a model may each build one; all of them must get
// the one graph the Lab memoizes.
func TestProxyGraphConcurrentFirstUse(t *testing.T) {
	const model, callers = "resnet18", 8
	l := NewLab(tinyOpts())
	graphs := make([]*graph.Graph, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i], errs[i] = l.proxyGraph(model)
		}()
	}
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if graphs[i] != graphs[0] {
			t.Fatalf("caller %d got proxy graph %p, caller 0 got %p", i, graphs[i], graphs[0])
		}
	}
	l.proxyMu.Lock()
	kept := l.proxies[model]
	l.proxyMu.Unlock()
	if kept != graphs[0] {
		t.Fatalf("Lab memoized %p, callers got %p", kept, graphs[0])
	}
}

func TestWorkerKnobs(t *testing.T) {
	l := NewLab(tinyOpts())
	if l.workers() < 1 {
		t.Fatalf("default workers %d < 1", l.workers())
	}
	l.Opts.Workers = 3
	if l.workers() != 3 {
		t.Fatalf("workers() = %d, want 3", l.workers())
	}
}
