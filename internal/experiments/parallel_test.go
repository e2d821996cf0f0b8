package experiments

import (
	"errors"
	"reflect"
	"testing"

	"edgeinfer/internal/dataset"
)

// TestWorkerCountInvariance is the determinism gate for the parallel lab:
// every table must come out identical whether the per-image and per-model
// loops run serially or fanned out. Outputs are placed by index and kernel
// execution is bit-identical under any worker count, so this is exact
// equality, not tolerance.
func TestWorkerCountInvariance(t *testing.T) {
	// Smallest configuration that still walks every table's group of
	// engines through the per-image fan-out end to end; the kernel-level
	// bit-identity matrix lives in internal/kernels.
	opts := Options{
		BenignPerClass: 1,
		AdvPerClass:    1,
		AdvTypes:       []dataset.Corruption{dataset.GaussianNoise},
		Runs:           2,
		EnginesPerSide: 1,
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

func TestWorkerKnobs(t *testing.T) {
	l := NewLab(tinyOpts())
	if l.workers() < 1 {
		t.Fatalf("default workers %d < 1", l.workers())
	}
	l.Opts.Workers = 3
	if l.workers() != 3 {
		t.Fatalf("workers() = %d, want 3", l.workers())
	}
	// Builds are serial, so a timing cache leaves the per-image fan-out
	// alone.
	l.Opts.TimingCacheDir = t.TempDir()
	if l.workers() != 3 {
		t.Fatalf("per-image workers with timing cache = %d, want 3", l.workers())
	}
}

func TestForEachSemantics(t *testing.T) {
	// Indices are covered exactly once under any width.
	for _, width := range []int{1, 4, 16} {
		hits := make([]int, 37)
		if err := forEach(width, len(hits), func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("width %d: index %d ran %d times", width, i, n)
			}
		}
	}
	// An error from any index surfaces.
	sentinel := errors.New("boom")
	if err := forEach(4, 9, func(i int) error {
		if i == 5 {
			return sentinel
		}
		return nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("forEach swallowed the error: %v", err)
	}
}
