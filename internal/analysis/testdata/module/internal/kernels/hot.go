// Hot-path allocation fixtures: //rt:hotpath roots and everything they
// statically reach must be allocation-free, with the warm-up, result-
// flow and cold-tail idioms sanctioned. See kernels.go for this
// package's determinism/floatorder fixtures.

package kernels

// trace absorbs the suppressed append below.
var trace []float32

// Blend is a hot root: the local scratch allocation is flagged; writing
// through caller-provided buffers is the sanctioned shape.
//
//rt:hotpath
func Blend(dst, src []float32) {
	tmp := make([]float32, len(src)) // want:hotalloc
	copy(tmp, src)
	copy(dst, tmp)
}

// Dispatch reaches stage transitively: stage's allocation is flagged
// with the discovery chain even though stage itself is unannotated.
//
//rt:hotpath
func Dispatch(dst, src []float32) {
	stage(dst, src)
}

func stage(dst, src []float32) {
	buf := make([]float32, len(src)) // want:hotalloc
	copy(buf, src)
	copy(dst, buf)
}

// warmBuf grows its buffer only under a cap guard — the warm-up idiom,
// no finding once buffers reach steady size.
type warmBuf struct{ buf []float32 }

//rt:hotpath
func (w *warmBuf) take(n int) []float32 {
	if cap(w.buf) < n {
		w.buf = make([]float32, n)
	}
	return w.buf[:n]
}

// Fresh allocates its own result — the function's contract with its
// caller, not per-call garbage: no finding.
//
//rt:hotpath
func Fresh(n int) []float32 {
	return make([]float32, n)
}

// Traced appends to a package-level slice on the hot path — flagged
// without a directive, sanctioned here with a surfaced reason.
//
//rt:hotpath
func Traced(x float32) {
	trace = append(trace, x) //rt:allow hotalloc -- fixture proves hot-path suppression with a reason
}
