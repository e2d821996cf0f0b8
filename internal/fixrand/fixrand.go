// Package fixrand provides deterministic pseudo-random number generation
// for the whole simulator. Every stochastic element of edgeinfer (synthetic
// weights, dataset images, tuner measurement noise) draws from a fixrand
// source seeded by a string key, so that experiments are exactly
// reproducible while still exhibiting build-to-build variability: the key
// encodes (model, platform, build-id, purpose).
package fixrand

import "math"

// Source is a SplitMix64 pseudo-random generator. The zero value is a
// valid source seeded with 0; use New or NewKeyed for derived streams.
type Source struct {
	state uint64
}

// New returns a source seeded with the given value.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// NewKeyed returns a source seeded by hashing a string key. Distinct keys
// give statistically independent streams.
func NewKeyed(key string) *Source {
	return New(HashString(key))
}

// HashString hashes a string to a 64-bit seed (FNV-1a followed by a
// SplitMix64 finalizer to spread low-entropy inputs).
func HashString(s string) uint64 {
	return mix(fnv1a(fnvOffset, s))
}

// FNV-1a parameters. The hash streams: folding a key's parts one after
// another gives the hash of their concatenation.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("fixrand: Intn with non-positive n") //rt:allow panicpath -- caller-contract bug as in math/rand; fault injectors only pass len(t.Data) > 0 (tensors reject empty shapes)
	}
	return int(s.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller; one value per
// call, the spare is discarded for simplicity and determinism).
func (s *Source) NormFloat64() float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders n elements using the provided swap
// function, in the manner of math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent child stream labelled by the concatenation
// of the key parts: Fork(a, b) is Fork(a + b) without building the
// string. The child is a pure function of the parent's seed state at the
// time of the call and the key, so forking does not disturb the parent
// sequence. Fork is small enough to inline, so a child consumed on the
// spot (s.Fork(k).NormFloat64()) stays on the caller's stack.
func (s *Source) Fork(key ...string) *Source {
	return &Source{state: s.forkSeed(key)}
}

// forkSeed is the child's seed. It stays out of line: inlined, its loop
// would push Fork past the inliner's budget.
//
//go:noinline
func (s *Source) forkSeed(key []string) uint64 {
	h := uint64(fnvOffset)
	for _, part := range key {
		h = fnv1a(h, part)
	}
	return mix(s.state ^ mix(h))
}
