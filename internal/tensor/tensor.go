// Package tensor implements dense NCHW float32 tensors and the reference
// numeric operators needed to execute neural-network inference: 2-D
// convolution, pooling, fully-connected layers, normalization, activation
// and elementwise ops, plus FP16 and INT8 precision emulation used by the
// quantization passes of the inference-engine builder.
//
// These are the bit-exact reference implementations. Kernel variants in
// internal/kernels compute the same math in different accumulation orders
// and precisions, which is the source of cross-engine output differences
// characterized by the paper.
package tensor

import "fmt"

// Tensor is a dense 4-D tensor in NCHW layout. Lower-rank data uses
// trailing singleton dimensions (a vector of length K is [1, K, 1, 1]).
type Tensor struct {
	N, C, H, W int
	Data       []float32
}

// New allocates a zero tensor with the given shape. It panics on
// non-positive dimensions.
func New(n, c, h, w int) *Tensor {
	t := new(Tensor)
	t.Resize(n, c, h, w)
	return t
}

// Resize gives t the shape [n, c, h, w] in place: its backing array is
// kept when it is large enough — the contents are then stale, and every
// ...Into operator overwrites every element — and replaced by a zeroed
// one otherwise. This is how an execution context's slot buffers follow
// the shapes of the activations they hold. It panics on non-positive
// dimensions.
func (t *Tensor) Resize(n, c, h, w int) {
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape [%d %d %d %d]", n, c, h, w)) //rt:allow panicpath -- allocation-contract bug, not data-driven: loaders and kernels validate shapes before allocating
	}
	size := n * c * h * w
	if cap(t.Data) < size {
		t.Data = make([]float32, size)
	}
	t.N, t.C, t.H, t.W, t.Data = n, c, h, w, t.Data[:size]
}

// NewVec allocates a [1, k, 1, 1] tensor, the conventional shape for
// per-channel parameters and classifier logits.
func NewVec(k int) *Tensor { return New(1, k, 1, 1) }

// Len returns the number of elements.
func (t *Tensor) Len() int { return t.N * t.C * t.H * t.W }

// Shape returns the shape as a 4-element array.
func (t *Tensor) Shape() [4]int { return [4]int{t.N, t.C, t.H, t.W} }

// SameShape reports whether t and u have identical dimensions.
func (t *Tensor) SameShape(u *Tensor) bool {
	return t.N == u.N && t.C == u.C && t.H == u.H && t.W == u.W
}

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set stores v at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	u := &Tensor{N: t.N, C: t.C, H: t.H, W: t.W, Data: make([]float32, len(t.Data))}
	copy(u.Data, t.Data)
	return u
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Argmax returns the flat index of the maximum element — the class
// decision for logit vectors, the one every server and experiment makes.
// The first element is the initial best and only a strictly greater one
// replaces it: ties go to the lowest index, and a NaN first element
// wins. A nil or empty tensor gives -1.
func (t *Tensor) Argmax() int {
	if t == nil || len(t.Data) == 0 {
		return -1
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

// MaxAbs returns the maximum absolute value, used for quantization
// calibration.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// String implements fmt.Stringer with a compact shape description.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor[%dx%dx%dx%d]", t.N, t.C, t.H, t.W)
}
