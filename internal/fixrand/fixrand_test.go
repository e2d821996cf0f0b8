package fixrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewKeyed("model=alexnet/build=1")
	b := NewKeyed("model=alexnet/build=1")
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctKeysDiverge(t *testing.T) {
	a := NewKeyed("model=alexnet/build=1")
	b := NewKeyed("model=alexnet/build=2")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct keys produced %d/100 identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(42)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	var sum, sumsq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewKeyed("p")
	c1 := parent.Fork("child-a")
	c2 := parent.Fork("child-b")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked children with distinct keys produced identical first value")
	}
	// Forking must not disturb the parent stream.
	p1 := NewKeyed("p")
	_ = p1.Fork("x")
	p2 := NewKeyed("p")
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("fork perturbed the parent stream")
	}
}

func TestHashStringSpreads(t *testing.T) {
	h1 := HashString("a")
	h2 := HashString("b")
	h3 := HashString("")
	if h1 == h2 || h1 == h3 || h2 == h3 {
		t.Fatal("hash collisions on trivial inputs")
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(99)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements, sum=%d", sum)
	}
}

// frozenFork is Fork as it stood when it took one key string.
func frozenFork(s *Source, key string) *Source {
	return New(mix(s.state ^ HashString(key)))
}

// Fork over parts seeds exactly what the single-string Fork seeded for
// their concatenation, however the key is cut.
func TestForkPartsMatchConcatenation(t *testing.T) {
	if err := quick.Check(func(seed uint64, a, b, c string) bool {
		s := New(seed)
		want := frozenFork(s, a+b+c).Uint64()
		return s.Fork(a, b, c).Uint64() == want &&
			s.Fork(a+b, c).Uint64() == want &&
			s.Fork(a+b+c).Uint64() == want &&
			s.Fork(a, "", b+c).Uint64() == want
	}, nil); err != nil {
		t.Fatal(err)
	}
	if New(3).Fork().Uint64() != frozenFork(New(3), "").Uint64() {
		t.Fatal("Fork() differs from Fork(\"\")")
	}
}

// A child consumed on the spot stays on the caller's stack: the tuner
// draws two such variates for every tactic it times.
func TestForkNormFloat64Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	s := NewKeyed("tuner/resnet18/NX/build1")
	layer, symbol := "res2a_branch2a_plus_a_long_layer_name", "trt_volta_h884cudnn_128x64_ldg8_relu_exp_small_nhwc_tn_v1"
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += s.Fork(layer, "/", symbol).NormFloat64()
	}); n != 0 {
		t.Fatalf("Fork(...).NormFloat64() allocates %v times per call, want 0", n)
	}
	_ = sink
}
