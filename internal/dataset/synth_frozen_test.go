package dataset

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"edgeinfer/internal/fixrand"
)

// frozenBenign and frozenAdversarial are Benign and Adversarial as they
// were when they ran on one goroutine and Adversarial drew a (class, i)
// key's noisy image afresh for every type and severity.
func frozenBenign(cfg BenignConfig) []Sample {
	tpl := Templates(cfg.Seed, cfg.Classes)
	var out []Sample
	for c := 0; c < cfg.Classes; c++ {
		for i := 0; i < cfg.PerClass; i++ {
			src := fixrand.NewKeyed(fmt.Sprintf("%s/benign/c%d/i%d", cfg.Seed, c, i))
			img := tpl[c].Clone()
			for k := range img.Data {
				img.Data[k] += float32(cfg.NoiseSigma * src.NormFloat64())
			}
			out = append(out, Sample{Image: img, Label: c})
		}
	}
	return out
}

func frozenAdversarial(cfg AdversarialConfig) []AdversarialSample {
	tpl := Templates(cfg.Seed, cfg.Classes)
	var out []AdversarialSample
	for _, ct := range cfg.Types {
		for _, sv := range cfg.Severities {
			for c := 0; c < cfg.Classes; c++ {
				for i := 0; i < cfg.PerClass; i++ {
					key := fmt.Sprintf("%s/adv/c%d/i%d", cfg.Seed, c, i)
					src := fixrand.NewKeyed(key)
					img := tpl[c].Clone()
					for k := range img.Data {
						img.Data[k] += float32(3.8 * src.NormFloat64())
					}
					img = Corrupt(img, ct, sv, key)
					out = append(out, AdversarialSample{
						Sample:   Sample{Image: img, Label: c},
						Type:     ct,
						Severity: sv,
					})
				}
			}
		}
	}
	return out
}

// sameSample reports the first difference between two samples: label or
// any element's bits.
func sameSample(got, want Sample) error {
	if got.Label != want.Label {
		return fmt.Errorf("label %d, want %d", got.Label, want.Label)
	}
	if got.Image.Shape() != want.Image.Shape() {
		return fmt.Errorf("shape %v, want %v", got.Image.Shape(), want.Image.Shape())
	}
	for k, v := range got.Image.Data {
		if math.Float32bits(v) != math.Float32bits(want.Image.Data[k]) {
			return fmt.Errorf("element %d is %v (%#08x), want %v (%#08x)",
				k, v, math.Float32bits(v), want.Image.Data[k], math.Float32bits(want.Image.Data[k]))
		}
	}
	return nil
}

// procs are the GOMAXPROCS settings the synthesis must not depend on.
var procs = []int{1, 4}

// atProcs calls fn under each setting of procs.
func atProcs(fn func(procs int)) {
	for _, p := range procs {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			fn(p)
		}()
	}
}

// The set sizes both frozen tests sweep. The serial loops give an empty
// set for a negative PerClass but panic sizing the templates for a
// negative Classes; that row must be empty too.
var (
	frozenClasses  = []int{-1, 1, 7, 100}
	frozenPerClass = []int{-1, 0, 1, 3}
)

// TestBenignMatchesFrozen holds the parallel Benign to the serial loop
// bit for bit, in order, on one core and on four.
func TestBenignMatchesFrozen(t *testing.T) {
	for _, classes := range frozenClasses {
		for _, perClass := range frozenPerClass {
			cfg := BenignConfig{Seed: "frozen-benign", Classes: classes, PerClass: perClass, NoiseSigma: 3.8}
			var want []Sample
			if classes > 0 {
				want = frozenBenign(cfg)
			}
			atProcs(func(p int) {
				got := Benign(cfg)
				if len(got) != len(want) {
					t.Fatalf("%d×%d at %d procs: %d samples, want %d", classes, perClass, p, len(got), len(want))
				}
				for k := range want {
					if err := sameSample(got[k], want[k]); err != nil {
						t.Fatalf("%d×%d at %d procs: sample %d: %v", classes, perClass, p, k, err)
					}
				}
			})
		}
	}
}

// TestAdversarialMatchesFrozen holds the parallel, base-once Adversarial
// to the serial loop bit for bit, in order (label, type and severity
// included), over all 15 corruptions and three severity lists, on one
// core and on four.
func TestAdversarialMatchesFrozen(t *testing.T) {
	for _, sevs := range [][]int{{1, 5}, {5, 1}, {3}} {
		for _, classes := range frozenClasses {
			for _, perClass := range frozenPerClass {
				if raceEnabled && classes*perClass > 7 {
					continue // ≈ 9 000 corruptions a row: minutes under the race detector
				}
				cfg := AdversarialConfig{Seed: "frozen-adv", Classes: classes, PerClass: perClass, Severities: sevs, Types: Corruptions()}
				var want []AdversarialSample
				if classes > 0 {
					want = frozenAdversarial(cfg)
				}
				atProcs(func(p int) {
					got := Adversarial(cfg)
					if len(got) != len(want) {
						t.Fatalf("%d×%d %v at %d procs: %d samples, want %d", classes, perClass, sevs, p, len(got), len(want))
					}
					for k := range want {
						if got[k].Type != want[k].Type || got[k].Severity != want[k].Severity {
							t.Fatalf("%d×%d %v at %d procs: sample %d is %v/%d, want %v/%d", classes, perClass, sevs, p, k,
								got[k].Type, got[k].Severity, want[k].Type, want[k].Severity)
						}
						if err := sameSample(got[k].Sample, want[k].Sample); err != nil {
							t.Fatalf("%d×%d %v at %d procs: sample %d (%v/%d): %v", classes, perClass, sevs, p, k, want[k].Type, want[k].Severity, err)
						}
					}
				})
			}
		}
	}
}
