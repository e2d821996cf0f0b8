package experiments

import (
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
