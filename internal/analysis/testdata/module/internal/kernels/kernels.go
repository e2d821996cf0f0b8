// Package kernels is a determinism fixture: the real package of this
// name is on the restricted-path list, so wall-clock reads, math/rand
// and map-order leaks are all flagged here. A marker comment naming an
// analyzer means the line must produce exactly one finding of it.
package kernels

import (
	"math/rand" // want:determinism
	"sort"
	"time"
)

// Elapsed reads the wall clock in a restricted package.
func Elapsed(start time.Time) float64 {
	return time.Since(start).Seconds() // want:determinism
}

// Jitter draws from the unseeded global generator.
func Jitter() float64 { return rand.Float64() }

// Names leaks map iteration order into a slice.
func Names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want:determinism
	}
	return out
}

// SortedNames collects then sorts — the sanctioned idiom, no finding.
func SortedNames(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Join concatenates strings in map order.
func Join(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want:determinism
	}
	return s
}

// AnyKey keeps an arbitrary iteration's key.
func AnyKey(m map[string]int) string {
	var last string
	for k := range m {
		last = k // want:determinism
	}
	return last
}

// Sum accumulates floats in map order — floatorder's domain, which
// determinism leaves alone.
func Sum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want:floatorder
	}
	return sum
}

// Variant mirrors the real kernel library's rounding carrier: partial
// sums are rounded by roundTo and folded by combine.
type Variant struct{ SplitK int }

func (v Variant) roundTo(x float32) float32 { return x }

func (v Variant) combine(partials []float32) float32 {
	var acc float32
	for _, p := range partials {
		acc = v.roundTo(acc + p)
	}
	return acc
}

// Dot reduces without the rounding discipline: flagged by the kernels
// reduction rule.
func Dot(x, w []float32) float32 {
	var acc float32
	for i, xv := range x {
		acc += w[i] * xv // want:floatorder
	}
	return acc
}

// DotRounded folds the same reduction through roundTo — the sanctioned
// shape, no finding.
func DotRounded(v Variant, x, w []float32) float32 {
	var acc float32
	for i, xv := range x {
		acc += w[i] * xv
	}
	return v.roundTo(acc)
}

// TiledDot accumulates per tile and folds the partials through combine
// — sanctioned, no finding anywhere in the function.
func TiledDot(v Variant, x, w []float32) float32 {
	var partials []float32
	for t := 0; t < len(x); t += 4 {
		var acc float32
		for i := t; i < t+4 && i < len(x); i++ {
			acc += w[i] * x[i]
		}
		partials = append(partials, acc)
	}
	return v.combine(partials)
}

// Norm accumulates a float64 across a plain counted loop with no
// rounding anywhere in the function: flagged.
func Norm(xs []float64) float64 {
	var total float64
	for i := 0; i < len(xs); i++ {
		total += xs[i] * xs[i] // want:floatorder
	}
	return total
}

// ResetPerIteration declares its accumulator inside the loop body, so
// nothing carries across iterations: no finding.
func ResetPerIteration(xs []float32) []float32 {
	out := make([]float32, len(xs))
	for i := range xs {
		y := xs[i]
		y += 1
		out[i] = y
	}
	return out
}

// Allowed is suppressed by a trailing directive: no finding.
func Allowed() int64 {
	return time.Now().UnixNano() //rt:allow determinism -- fixture proves trailing-directive suppression
}

// AllowedAbove is suppressed by a directive on the preceding line.
func AllowedAbove() int64 {
	//rt:allow determinism -- fixture proves own-line directive covers the next line
	return time.Now().UnixNano()
}
