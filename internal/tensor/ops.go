package tensor

import (
	"fmt"
	"math"
)

// ConvParams describes a 2-D convolution: square kernel, symmetric stride
// and padding, optional channel groups (groups == C_in gives depthwise).
type ConvParams struct {
	OutC, Kernel, Stride, Pad, Groups int
}

// ConvOutDim returns the spatial output size of a convolution or pooling
// window over an input of size in.
func ConvOutDim(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// The rules below are the one definition of which convolutions, pools
// and fully-connected layers are legal. Shape inference, the reference
// operators, the graph interpreter and the engine kernels all ask them
// and prefix the error with where they were asked; the error bodies are
// the rules' own. Each allocates only the error it returns. An input is
// given by its NCHW shape, so shape inference can ask before a tensor
// exists; a nil weight tensor leaves the weight length unchecked (shape
// inference has no weights) and a nil bias is no bias. Geometry is
// checked before weights, so a caller without weights reaches the same
// verdict on every geometry fault.

// ConvGeom is the geometry a legal convolution runs with.
type ConvGeom struct {
	OH, OW int // output height and width
	Groups int // channel groups: ConvParams.Groups, with 0 meaning 1
	ICG    int // input channels per group
}

// CheckConv is the rule for a convolution p over an input of shape in
// with weights w ([OutC, in[1]/groups, k, k] flattened) and bias b (at
// least OutC long).
func CheckConv(in [4]int, w, b *Tensor, p ConvParams) (ConvGeom, error) {
	if p.Kernel < 1 || p.Stride < 1 || p.Pad < 0 || p.OutC < 1 {
		return ConvGeom{}, fmt.Errorf("conv params k=%d s=%d p=%d outC=%d invalid", p.Kernel, p.Stride, p.Pad, p.OutC)
	}
	if p.Groups < 0 {
		return ConvGeom{}, fmt.Errorf("conv groups %d negative", p.Groups)
	}
	g := ConvGeom{Groups: max(p.Groups, 1)}
	if in[1]%g.Groups != 0 || p.OutC%g.Groups != 0 {
		return ConvGeom{}, fmt.Errorf("conv groups %d do not divide channels in=%d out=%d", g.Groups, in[1], p.OutC)
	}
	g.ICG = in[1] / g.Groups
	g.OH, g.OW = ConvOutDim(in[2], p.Kernel, p.Stride, p.Pad), ConvOutDim(in[3], p.Kernel, p.Stride, p.Pad)
	if g.OH < 1 || g.OW < 1 {
		return ConvGeom{}, fmt.Errorf("conv output %dx%d not positive (input %dx%d)", g.OH, g.OW, in[2], in[3])
	}
	if want := p.OutC * g.ICG * p.Kernel * p.Kernel; w != nil && w.Len() != want {
		return ConvGeom{}, fmt.Errorf("conv weight len %d, want %d", w.Len(), want)
	}
	if b != nil && b.Len() < p.OutC {
		return ConvGeom{}, fmt.Errorf("conv bias len %d, want %d", b.Len(), p.OutC)
	}
	return g, nil
}

// CheckPool is the rule for a max or average pool p over an input of
// shape in; it returns the output height and width.
func CheckPool(in [4]int, p PoolParams) (oh, ow int, err error) {
	if p.Kernel < 1 || p.Stride < 1 || p.Pad < 0 {
		return 0, 0, fmt.Errorf("pool params k=%d s=%d p=%d invalid", p.Kernel, p.Stride, p.Pad)
	}
	oh, ow = ConvOutDim(in[2], p.Kernel, p.Stride, p.Pad), ConvOutDim(in[3], p.Kernel, p.Stride, p.Pad)
	if oh < 1 || ow < 1 {
		return 0, 0, fmt.Errorf("pool output %dx%d not positive (input %dx%d)", oh, ow, in[2], in[3])
	}
	return oh, ow, nil
}

// CheckFC is the rule for a fully-connected layer of out units over an
// input of shape in, with weights w ([out, C*H*W] flattened) and bias b
// (at least out long); it returns the reduction length C*H*W.
func CheckFC(in [4]int, w, b *Tensor, out int) (int, error) {
	if out < 1 {
		return 0, fmt.Errorf("fc with out=%d", out)
	}
	n := in[1] * in[2] * in[3]
	if w != nil && w.Len() != out*n {
		return 0, fmt.Errorf("fc weight len %d, want %d", w.Len(), out*n)
	}
	if b != nil && b.Len() < out {
		return 0, fmt.Errorf("fc bias len %d, want %d", b.Len(), out)
	}
	return n, nil
}

// Every operator below has two forms. The ...Into form writes into a
// caller-provided y: it Resizes y to the output shape and overwrites
// every element, so y may be a recycled buffer with stale contents (an
// execution context's slot). The allocating form is the Into form on a
// fresh tensor, so both compute the same bits by construction. Where
// noted, y may be the input itself (elementwise operators).

// Conv2D computes a grouped 2-D convolution of x with weights w and
// per-output-channel bias b (b may be nil). w has logical shape
// [outC, inC/groups, k, k] flattened into w.Data. This is the bit-exact
// reference: each output element starts from +0, adds wv*x for every
// tap inside the input in row-major (c, kh, kw) order in float32, and
// adds the bias last. Taps in the padding are skipped, never multiplied
// by zero (0·Inf is NaN, and a +0 product would flip a -0 sum).
//
// The loop nest runs a whole output row at a time — each tap is added
// into the span of columns it reaches, with the span computed once per
// tap — which changes which element is worked on when, never the order
// of the operations any one element receives. A stride-1 3×3 row over
// one input channel goes to depthwise3Row, which keeps that order too.
func Conv2D(x, w, b *Tensor, p ConvParams) *Tensor {
	y := new(Tensor)
	Conv2DInto(x, w, b, p, y)
	return y
}

// Conv2DInto is Conv2D writing into y; the output rows are its
// accumulators.
//
//rt:hotpath
func Conv2DInto(x, w, b *Tensor, p ConvParams, y *Tensor) {
	g, err := CheckConv(x.Shape(), w, b, p)
	if err != nil {
		panic("tensor: " + err.Error())
	}
	icg, ocg, oh, ow := g.ICG, p.OutC/g.Groups, g.OH, g.OW
	y.Resize(x.N, p.OutC, oh, ow)
	k, s, pad := p.Kernel, p.Stride, p.Pad
	plane, taps := x.H*x.W, icg*k*k
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < p.OutC; oc++ {
			xg := x.Data[(n*x.C+oc/ocg*icg)*plane:][:icg*plane]
			wo := w.Data[oc*taps:][:taps]
			var bias float32
			if b != nil {
				bias = b.Data[oc]
			}
			for i := 0; i < oh; i++ {
				row := y.Data[((n*p.OutC+oc)*oh+i)*ow:][:ow]
				top := i*s - pad // input row of tap kh = 0
				khLo, khHi := max(0, -top), min(k, x.H-top)
				if k == 3 && s == 1 && icg == 1 && khLo == 0 && khHi == k {
					depthwise3Row(row, xg[top*x.W:][:3*x.W], wo, bias, pad)
					continue
				}
				clear(row)
				for c := 0; c < icg; c++ {
					for kh := khLo; kh < khHi; kh++ {
						xrow := xg[c*plane+(top+kh)*x.W:][:x.W]
						for kw, wv := range wo[(c*k+kh)*k:][:k] {
							// Output columns [jlo, jhi) have their input
							// column j*s+kw-pad in [0, W). The last is
							// floor(last/s): Go's / truncates a negative
							// last toward zero and would admit column 0.
							jlo, last := 0, x.W-1+pad-kw
							if last < 0 {
								continue
							}
							if pad > kw {
								jlo = (pad - kw + s - 1) / s
							}
							jhi := min(ow, last/s+1)
							if jlo >= jhi {
								continue
							}
							iw := jlo*s + kw - pad
							if s == 1 {
								ys := row[jlo:jhi]
								xs := xrow[iw:][:len(ys)]
								for t, xv := range xs {
									ys[t] += wv * xv
								}
								continue
							}
							for j := jlo; j < jhi; j++ {
								row[j] += wv * xrow[iw]
								iw += s
							}
						}
					}
				}
				for j := range row {
					row[j] += bias
				}
			}
		}
	}
}

// depthwise3Row computes one output row of a stride-1 3×3 convolution
// over a single input channel (a depthwise conv, as every numeric proxy's
// smoothing conv is) whose three tap rows xs, each len(xs)/3 wide, all
// lie inside the input. Each column whose window lies inside the row
// sums its taps in a register: from +0 (not from the first product,
// which would keep a −0 the row-span loop turns into +0), w·x in
// (kh, kw) order, then the bias — the sequence the row-span loop gives
// it. The nine weights stay in registers, and so do the window's first
// two input columns, so a column loads one new value per tap row. The
// columns reaching into the padding go to depthwise3Edge.
//
// A general kernel or stride gains nothing from a register loop: its
// tap loop cannot be unrolled, and the row-span loop is as fast.
//
//rt:hotpath
func depthwise3Row(row, xs, wk []float32, bias float32, pad int) {
	w := len(xs) / 3
	// Columns [ja, jb) have their window in [0, w): j-pad ≥ 0 and
	// j-pad+3 ≤ w.
	ja := min(pad, len(row))
	jb := max(ja, min(len(row), w+pad-2))
	if out := row[ja:jb]; len(out) > 0 {
		wk = wk[:9]
		w0, w1, w2, w3, w4, w5, w6, w7, w8 := wk[0], wk[1], wk[2], wk[3], wk[4], wk[5], wk[6], wk[7], wk[8]
		x0, x1, x2 := xs[ja-pad:], xs[w+ja-pad:], xs[2*w+ja-pad:]
		a0, a1, b0, b1, c0, c1 := x0[0], x0[1], x1[0], x1[1], x2[0], x2[1]
		x0, x1, x2 = x0[2:][:len(out)], x1[2:][:len(out)], x2[2:][:len(out)]
		for t, a2 := range x0 {
			b2, c2 := x1[t], x2[t]
			var acc float32
			acc += w0 * a0
			acc += w1 * a1
			acc += w2 * a2
			acc += w3 * b0
			acc += w4 * b1
			acc += w5 * b2
			acc += w6 * c0
			acc += w7 * c1
			acc += w8 * c2
			out[t] = acc + bias
			a0, a1, b0, b1, c0, c1 = a1, a2, b1, b2, c1, c2
		}
	}
	r0, r1, r2 := xs[:w], xs[w:][:w], xs[2*w:][:w]
	for j := 0; j < ja; j++ {
		row[j] = depthwise3Edge(r0, r1, r2, wk, bias, j-pad)
	}
	for j := jb; j < len(row); j++ {
		row[j] = depthwise3Edge(r0, r1, r2, wk, bias, j-pad)
	}
}

// depthwise3Edge is the output of depthwise3Row for a column whose
// window, starting at column left of the tap rows r0, r1, r2, reaches
// into the padding: the same sequence over the taps inside the row.
//
//rt:hotpath
func depthwise3Edge(r0, r1, r2, wk []float32, bias float32, left int) float32 {
	lo, hi := max(0, -left), min(3, len(r0)-left)
	var acc float32
	for kw := lo; kw < hi; kw++ {
		acc += wk[kw] * r0[left+kw]
	}
	for kw := lo; kw < hi; kw++ {
		acc += wk[3+kw] * r1[left+kw]
	}
	for kw := lo; kw < hi; kw++ {
		acc += wk[6+kw] * r2[left+kw]
	}
	return acc + bias
}

// PoolParams describes a pooling window.
type PoolParams struct {
	Kernel, Stride, Pad int
}

// MaxPool2D computes max pooling. Padded positions are ignored (treated as
// -inf), matching cuDNN semantics.
func MaxPool2D(x *Tensor, p PoolParams) *Tensor {
	y := new(Tensor)
	MaxPool2DInto(x, p, y)
	return y
}

// MaxPool2DInto is MaxPool2D writing into y.
//
//rt:hotpath
func MaxPool2DInto(x *Tensor, p PoolParams, y *Tensor) {
	oh, ow, err := CheckPool(x.Shape(), p)
	if err != nil {
		panic("tensor: " + err.Error())
	}
	y.Resize(x.N, x.C, oh, ow)
	plane := x.H * x.W
	for nc := 0; nc < x.N*x.C; nc++ {
		xp := x.Data[nc*plane:][:plane]
		for i := 0; i < oh; i++ {
			row := y.Data[(nc*oh+i)*ow:][:ow]
			top := i*p.Stride - p.Pad
			khLo, khHi := max(0, -top), min(p.Kernel, x.H-top)
			for j := range row {
				left := j*p.Stride - p.Pad
				kwLo, kwHi := max(0, -left), min(p.Kernel, x.W-left)
				best := float32(math.Inf(-1))
				for kh := khLo; kh < khHi; kh++ {
					xrow := xp[(top+kh)*x.W:][:x.W]
					for kw := kwLo; kw < kwHi; kw++ {
						if v := xrow[left+kw]; v > best {
							best = v
						}
					}
				}
				row[j] = best
			}
		}
	}
}

// AvgPool2D computes average pooling over valid (unpadded) positions.
func AvgPool2D(x *Tensor, p PoolParams) *Tensor {
	y := new(Tensor)
	AvgPool2DInto(x, p, y)
	return y
}

// AvgPool2DInto is AvgPool2D writing into y. A window with no valid tap
// (padding at least as wide as the kernel) stores an explicit zero: on a
// recycled y, skipping the store would leave a stale value behind.
//
// When the windows are 2×2 and every one lies wholly inside the input —
// no padding, and the last window of each axis ends inside it (under
// k2 s2 an odd side's last window hangs off the input: ConvOutDim(1, 2,
// 2, 0) is 1) — each sums its four taps in (kh, kw) order, unrolled and
// unclamped, and divides by 4. The numeric proxies pool this way; a
// general k gains little, its tap loops being too short to run fast.
//
//rt:hotpath
func AvgPool2DInto(x *Tensor, p PoolParams, y *Tensor) {
	oh, ow, err := CheckPool(x.Shape(), p)
	if err != nil {
		panic("tensor: " + err.Error())
	}
	y.Resize(x.N, x.C, oh, ow)
	plane := x.H * x.W
	s := p.Stride
	whole2 := p.Kernel == 2 && p.Pad == 0 && (oh-1)*s+2 <= x.H && (ow-1)*s+2 <= x.W
	for nc := 0; nc < x.N*x.C; nc++ {
		xp := x.Data[nc*plane:][:plane]
		for i := 0; i < oh; i++ {
			row := y.Data[(nc*oh+i)*ow:][:ow]
			if whole2 {
				r0, r1 := xp[i*s*x.W:][:x.W], xp[(i*s+1)*x.W:][:x.W]
				for j := range row {
					a, b := r0[j*s:][:2], r1[j*s:][:2]
					var sum float32
					sum += a[0]
					sum += a[1]
					sum += b[0]
					sum += b[1]
					row[j] = sum / 4
				}
				continue
			}
			top := i*p.Stride - p.Pad
			khLo, khHi := max(0, -top), min(p.Kernel, x.H-top)
			for j := range row {
				left := j*p.Stride - p.Pad
				kwLo, kwHi := max(0, -left), min(p.Kernel, x.W-left)
				var sum float32
				for kh := khLo; kh < khHi; kh++ {
					xrow := xp[(top+kh)*x.W:][:x.W]
					for kw := kwLo; kw < kwHi; kw++ {
						sum += xrow[left+kw]
					}
				}
				var avg float32
				if count := max(0, khHi-khLo) * max(0, kwHi-kwLo); count > 0 {
					avg = sum / float32(count)
				}
				row[j] = avg
			}
		}
	}
}

// GlobalAvgPool2D reduces each channel's spatial plane to its mean,
// producing an [N, C, 1, 1] tensor.
func GlobalAvgPool2D(x *Tensor) *Tensor {
	y := new(Tensor)
	GlobalAvgPool2DInto(x, y)
	return y
}

// GlobalAvgPool2DInto is GlobalAvgPool2D writing into y.
//
//rt:hotpath
func GlobalAvgPool2DInto(x, y *Tensor) {
	y.Resize(x.N, x.C, 1, 1)
	inv := 1 / float32(x.H*x.W)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			var sum float32
			for h := 0; h < x.H; h++ {
				for w := 0; w < x.W; w++ {
					sum += x.At(n, c, h, w)
				}
			}
			y.Set(n, c, 0, 0, sum*inv)
		}
	}
}

// ReLU applies max(0, x) elementwise, returning a new tensor.
func ReLU(x *Tensor) *Tensor {
	y := new(Tensor)
	ReLUInto(x, y)
	return y
}

// ReLUInto is ReLU writing into y; y may be x.
//
//rt:hotpath
func ReLUInto(x, y *Tensor) {
	y.Resize(x.N, x.C, x.H, x.W)
	for i, v := range x.Data {
		if v < 0 {
			v = 0
		}
		y.Data[i] = v
	}
}

// LeakyReLU applies x>=0 ? x : alpha*x elementwise.
func LeakyReLU(x *Tensor, alpha float32) *Tensor {
	y := new(Tensor)
	LeakyReLUInto(x, alpha, y)
	return y
}

// LeakyReLUInto is LeakyReLU writing into y; y may be x.
//
//rt:hotpath
func LeakyReLUInto(x *Tensor, alpha float32, y *Tensor) {
	y.Resize(x.N, x.C, x.H, x.W)
	for i, v := range x.Data {
		if v < 0 {
			v = alpha * v
		}
		y.Data[i] = v
	}
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(x *Tensor) *Tensor {
	y := new(Tensor)
	SigmoidInto(x, y)
	return y
}

// SigmoidInto is Sigmoid writing into y; y may be x.
//
//rt:hotpath
func SigmoidInto(x, y *Tensor) {
	y.Resize(x.N, x.C, x.H, x.W)
	for i, v := range x.Data {
		y.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// FC computes a fully-connected layer y = W·flatten(x) + b for each batch
// element. w has logical shape [out, in] with in == C*H*W of x; b may be
// nil. Output shape is [N, out, 1, 1].
func FC(x, w, b *Tensor, out int) *Tensor {
	y := new(Tensor)
	FCInto(x, w, b, out, y)
	return y
}

// FCInto is FC writing into y.
//
//rt:hotpath
func FCInto(x, w, b *Tensor, out int, y *Tensor) {
	in, err := CheckFC(x.Shape(), w, b, out)
	if err != nil {
		panic("tensor: " + err.Error())
	}
	y.Resize(x.N, out, 1, 1)
	for n := 0; n < x.N; n++ {
		xoff := n * in
		for o := 0; o < out; o++ {
			var acc float32
			woff := o * in
			for i := 0; i < in; i++ {
				acc += w.Data[woff+i] * x.Data[xoff+i]
			}
			if b != nil {
				acc += b.Data[o]
			}
			y.Set(n, o, 0, 0, acc)
		}
	}
}

// BatchNorm applies per-channel affine normalization using precomputed
// inference statistics: y = gamma*(x-mean)/sqrt(var+eps) + beta.
func BatchNorm(x, gamma, beta, mean, variance *Tensor, eps float32) *Tensor {
	y := new(Tensor)
	BatchNormInto(x, gamma, beta, mean, variance, eps, y)
	return y
}

// BatchNormInto is BatchNorm writing into y; y may be x.
//
//rt:hotpath
func BatchNormInto(x, gamma, beta, mean, variance *Tensor, eps float32, y *Tensor) {
	y.Resize(x.N, x.C, x.H, x.W)
	for c := 0; c < x.C; c++ {
		scale := gamma.Data[c] / float32(math.Sqrt(float64(variance.Data[c]+eps)))
		shift := beta.Data[c] - scale*mean.Data[c]
		for n := 0; n < x.N; n++ {
			for h := 0; h < x.H; h++ {
				for w := 0; w < x.W; w++ {
					y.Set(n, c, h, w, scale*x.At(n, c, h, w)+shift)
				}
			}
		}
	}
}

// ScaleInto applies the per-channel affine y = gamma*x + beta, where a
// nil gamma is 1 and a nil beta is 0; y may be x.
//
//rt:hotpath
func ScaleInto(x, gamma, beta, y *Tensor) {
	y.Resize(x.N, x.C, x.H, x.W)
	for c := 0; c < x.C; c++ {
		var sc, sh float32 = 1, 0
		if gamma != nil {
			sc = gamma.Data[c]
		}
		if beta != nil {
			sh = beta.Data[c]
		}
		for n := 0; n < x.N; n++ {
			for h := 0; h < x.H; h++ {
				for w := 0; w < x.W; w++ {
					y.Set(n, c, h, w, sc*x.At(n, c, h, w)+sh)
				}
			}
		}
	}
}

// LRN applies local response normalization across channels with window
// size, alpha, beta and k as in AlexNet/GoogLeNet (Caffe semantics: alpha
// is divided by the window size).
func LRN(x *Tensor, size int, alpha, beta, k float32) *Tensor {
	y := new(Tensor)
	LRNInto(x, size, alpha, beta, k, y)
	return y
}

// LRNInto is LRN writing into y.
//
//rt:hotpath
func LRNInto(x *Tensor, size int, alpha, beta, k float32, y *Tensor) {
	y.Resize(x.N, x.C, x.H, x.W)
	half := size / 2
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			lo, hi := c-half, c+half
			if lo < 0 {
				lo = 0
			}
			if hi >= x.C {
				hi = x.C - 1
			}
			for h := 0; h < x.H; h++ {
				for w := 0; w < x.W; w++ {
					var sq float32
					for cc := lo; cc <= hi; cc++ {
						v := x.At(n, cc, h, w)
						sq += v * v
					}
					denom := math.Pow(float64(k+alpha/float32(size)*sq), float64(beta))
					y.Set(n, c, h, w, x.At(n, c, h, w)/float32(denom))
				}
			}
		}
	}
}

// Softmax applies channelwise softmax per batch element (over C, at each
// spatial position).
func Softmax(x *Tensor) *Tensor {
	y := new(Tensor)
	SoftmaxInto(x, y)
	return y
}

// SoftmaxInto is Softmax writing into y.
//
//rt:hotpath
func SoftmaxInto(x, y *Tensor) {
	y.Resize(x.N, x.C, x.H, x.W)
	for n := 0; n < x.N; n++ {
		for h := 0; h < x.H; h++ {
			for w := 0; w < x.W; w++ {
				maxv := float32(math.Inf(-1))
				for c := 0; c < x.C; c++ {
					if v := x.At(n, c, h, w); v > maxv {
						maxv = v
					}
				}
				var sum float64
				for c := 0; c < x.C; c++ {
					sum += math.Exp(float64(x.At(n, c, h, w) - maxv))
				}
				for c := 0; c < x.C; c++ {
					y.Set(n, c, h, w, float32(math.Exp(float64(x.At(n, c, h, w)-maxv))/sum))
				}
			}
		}
	}
}

// Add returns the elementwise sum of two same-shaped tensors (residual
// connections).
func Add(a, b *Tensor) *Tensor {
	y := new(Tensor)
	AddInto(a, b, y)
	return y
}

// AddInto is Add writing into y; y may be a, so a chain of residual
// inputs accumulates in place.
//
//rt:hotpath
func AddInto(a, b, y *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: add shape mismatch %v vs %v", a.Shape(), b.Shape()))
	}
	y.Resize(a.N, a.C, a.H, a.W)
	for i, v := range b.Data {
		y.Data[i] = a.Data[i] + v
	}
}

// Concat concatenates tensors along the channel dimension. All inputs
// must agree on N, H, W.
func Concat(ts ...*Tensor) *Tensor {
	y := new(Tensor)
	ConcatInto(ts, y)
	return y
}

// ConcatInto is Concat writing into y.
//
//rt:hotpath
func ConcatInto(ts []*Tensor, y *Tensor) {
	if len(ts) == 0 {
		panic("tensor: concat of zero tensors")
	}
	n, h, w := ts[0].N, ts[0].H, ts[0].W
	totalC := 0
	for _, t := range ts {
		if t.N != n || t.H != h || t.W != w {
			panic(fmt.Sprintf("tensor: concat shape mismatch %v vs [N=%d H=%d W=%d]", t.Shape(), n, h, w))
		}
		totalC += t.C
	}
	y.Resize(n, totalC, h, w)
	for ni := 0; ni < n; ni++ {
		coff := 0
		for _, t := range ts {
			for c := 0; c < t.C; c++ {
				for hi := 0; hi < h; hi++ {
					for wi := 0; wi < w; wi++ {
						y.Set(ni, coff+c, hi, wi, t.At(ni, c, hi, wi))
					}
				}
			}
			coff += t.C
		}
	}
}

// Upsample2x nearest-neighbour upsamples the spatial dims by 2 (used by
// Tiny-YOLOv3 and FCN decoders).
func Upsample2x(x *Tensor) *Tensor {
	y := new(Tensor)
	Upsample2xInto(x, y)
	return y
}

// Upsample2xInto is Upsample2x writing into y.
//
//rt:hotpath
func Upsample2xInto(x, y *Tensor) {
	y.Resize(x.N, x.C, x.H*2, x.W*2)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			for h := 0; h < y.H; h++ {
				for w := 0; w < y.W; w++ {
					y.Set(n, c, h, w, x.At(n, c, h/2, w/2))
				}
			}
		}
	}
}

// FlattenInto makes y the [N, C*H*W, 1, 1] reshape of x. With y == x it
// is a view — the header is reshaped over the same data, nothing is
// copied; otherwise y receives a copy.
//
//rt:hotpath
func FlattenInto(x, y *Tensor) {
	if y != x {
		y.Resize(x.N, x.C, x.H, x.W)
		copy(y.Data, x.Data)
	}
	y.C, y.H, y.W = x.C*x.H*x.W, 1, 1
}
