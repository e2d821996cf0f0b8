package dataset

import (
	"testing"
	"testing/quick"

	"edgeinfer/internal/tensor"
)

func TestTemplatesDeterministic(t *testing.T) {
	a := Templates("seed-x", 5)
	b := Templates("seed-x", 5)
	for c := range a {
		for i := range a[c].Data {
			if a[c].Data[i] != b[c].Data[i] {
				t.Fatalf("template %d not deterministic", c)
			}
		}
	}
}

func TestTemplatesDistinct(t *testing.T) {
	ts := Templates("seed-y", 3)
	same := 0
	for i := range ts[0].Data {
		if ts[0].Data[i] == ts[1].Data[i] {
			same++
		}
	}
	if same == len(ts[0].Data) {
		t.Fatal("two class templates identical")
	}
}

func TestTemplatesUnitRMS(t *testing.T) {
	ts := Templates("seed-z", 4)
	for c, tpl := range ts {
		var sumsq float64
		for _, v := range tpl.Data {
			sumsq += float64(v) * float64(v)
		}
		rms := sumsq / float64(tpl.Len())
		if rms < 0.9 || rms > 1.1 {
			t.Errorf("template %d RMS^2 = %v, want ~1", c, rms)
		}
	}
}

func TestTemplatesCorrelated(t *testing.T) {
	// Shared-base construction must give high pairwise correlation.
	ts := Templates("seed-corr", 10)
	var dot, na, nb float64
	for i := range ts[0].Data {
		dot += float64(ts[0].Data[i]) * float64(ts[1].Data[i])
		na += float64(ts[0].Data[i]) * float64(ts[0].Data[i])
		nb += float64(ts[1].Data[i]) * float64(ts[1].Data[i])
	}
	corr := dot / (sqrt64(na) * sqrt64(nb))
	if corr < 0.7 {
		t.Fatalf("inter-template correlation %.2f, want high (shared base)", corr)
	}
	if corr > 0.999 {
		t.Fatalf("templates essentially identical (corr %.4f)", corr)
	}
}

func TestBenignShapesAndLabels(t *testing.T) {
	cfg := BenignConfig{Seed: "b", Classes: 7, PerClass: 3, NoiseSigma: 1}
	ss := Benign(cfg)
	if len(ss) != 21 {
		t.Fatalf("%d samples, want 21", len(ss))
	}
	counts := map[int]int{}
	for _, s := range ss {
		if s.Image.Shape() != [4]int{1, ImgC, ImgHW, ImgHW} {
			t.Fatalf("image shape %v", s.Image.Shape())
		}
		counts[s.Label]++
	}
	for c := 0; c < 7; c++ {
		if counts[c] != 3 {
			t.Fatalf("class %d has %d samples", c, counts[c])
		}
	}
}

func TestBenignDeterministic(t *testing.T) {
	cfg := DefaultBenign(2)
	a, b := Benign(cfg), Benign(cfg)
	for i := range a {
		for j := range a[i].Image.Data {
			if a[i].Image.Data[j] != b[i].Image.Data[j] {
				t.Fatal("benign set not deterministic")
			}
		}
	}
}

func TestCorruptionsCount(t *testing.T) {
	if len(Corruptions()) != 15 {
		t.Fatalf("%d corruption types, paper uses 15", len(Corruptions()))
	}
	seen := map[string]bool{}
	for _, c := range Corruptions() {
		if seen[c.String()] {
			t.Fatalf("duplicate corruption name %s", c)
		}
		seen[c.String()] = true
	}
}

func TestCorruptDoesNotMutateInput(t *testing.T) {
	tpl := Templates("mut", 1)[0]
	before := tpl.Clone()
	for _, c := range Corruptions() {
		Corrupt(tpl, c, 5, "k")
	}
	for i := range tpl.Data {
		if tpl.Data[i] != before.Data[i] {
			t.Fatal("Corrupt mutated its input")
		}
	}
}

// distortionEnergy measures the mean squared difference a corruption
// introduces.
func distortionEnergy(img *tensor.Tensor, c Corruption, severity int, key string) float64 {
	out := Corrupt(img, c, severity, key)
	var sum float64
	for i := range img.Data {
		d := float64(out.Data[i] - img.Data[i])
		sum += d * d
	}
	return sum / float64(img.Len())
}

func TestCorruptionChangesImage(t *testing.T) {
	tpl := Templates("chg", 1)[0]
	for _, c := range Corruptions() {
		if distortionEnergy(tpl, c, 5, "k") <= 0 {
			t.Errorf("%s at severity 5 left the image untouched", c)
		}
	}
}

// Property: severity 5 distorts at least as much as severity 1, for every
// corruption type (the paper's severity semantics).
func TestSeverityMonotone(t *testing.T) {
	tpl := Templates("sev", 1)[0]
	for _, c := range Corruptions() {
		e1 := distortionEnergy(tpl, c, 1, "k")
		e5 := distortionEnergy(tpl, c, 5, "k")
		if e5 < e1 {
			t.Errorf("%s: severity 5 energy %.3f < severity 1 %.3f", c, e5, e1)
		}
	}
}

func TestAdversarialCoverage(t *testing.T) {
	cfg := AdversarialConfig{Seed: "a", Classes: 3, PerClass: 2,
		Severities: []int{1, 5}, Types: []Corruption{GaussianNoise, Fog}}
	ss := Adversarial(cfg)
	if len(ss) != 2*2*3*2 {
		t.Fatalf("%d samples, want 24", len(ss))
	}
	bySev := map[int]int{}
	for _, s := range ss {
		bySev[s.Severity]++
	}
	if bySev[1] != 12 || bySev[5] != 12 {
		t.Fatalf("severity split %v", bySev)
	}
}

func TestSceneGeneration(t *testing.T) {
	cfg := DefaultScenes()
	s := Generate(cfg, 0)
	if len(s.Truth) != cfg.Vehicles {
		t.Fatalf("%d boxes, want %d", len(s.Truth), cfg.Vehicles)
	}
	for _, b := range s.Truth {
		if b.X < 0 || b.Y < 0 || b.X+b.W > cfg.HW || b.Y+b.H > cfg.HW {
			t.Fatalf("box %+v out of frame", b)
		}
	}
	if s.Plate == "" {
		t.Fatal("missing number plate")
	}
	// Distinct scenes differ.
	s2 := Generate(cfg, 1)
	if s2.Plate == s.Plate && s2.Truth[0] == s.Truth[0] {
		t.Fatal("scenes 0 and 1 identical")
	}
	// Same index reproduces.
	s0 := Generate(cfg, 0)
	if s0.Plate != s.Plate {
		t.Fatal("scene generation not deterministic")
	}
}

func TestVehicleClassNames(t *testing.T) {
	if Car.String() != "car" || Bus.String() != "bus" {
		t.Fatal("vehicle names wrong")
	}
}

// Property: corrupted images remain finite and the right shape.
func TestCorruptShapeProperty(t *testing.T) {
	tpl := Templates("prop", 1)[0]
	if err := quick.Check(func(ct, sv uint8) bool {
		c := Corruption(int(ct) % 15)
		s := int(sv)%5 + 1
		out := Corrupt(tpl, c, s, "pk")
		if out.Shape() != tpl.Shape() {
			return false
		}
		for _, v := range out.Data {
			if v != v || v > 1e6 || v < -1e6 { // NaN or absurd
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
