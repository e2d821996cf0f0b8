package tensor

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
)

func randTensor(key string, n, c, h, w int) *Tensor {
	src := fixrand.NewKeyed(key)
	t := New(n, c, h, w)
	for i := range t.Data {
		t.Data[i] = float32(src.NormFloat64())
	}
	return t
}

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4, 5)
	if x.Len() != 120 || len(x.Data) != 120 {
		t.Fatalf("len %d, want 120", x.Len())
	}
	if x.Shape() != [4]int{2, 3, 4, 5} {
		t.Fatalf("shape %v", x.Shape())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,1,1,1) did not panic")
		}
	}()
	New(0, 1, 1, 1)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4, 5)
	x.Set(1, 2, 3, 4, 42)
	if x.At(1, 2, 3, 4) != 42 {
		t.Fatal("At/Set mismatch")
	}
	// last element of the buffer
	if x.Data[119] != 42 {
		t.Fatal("indexing formula wrong for last element")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := randTensor("clone", 1, 2, 3, 3)
	y := x.Clone()
	y.Data[0] = 999
	if x.Data[0] == 999 {
		t.Fatal("clone shares storage")
	}
}

func TestArgmax(t *testing.T) {
	x := NewVec(5)
	copy(x.Data, []float32{0.1, -3, 7, 7, 2})
	if got := x.Argmax(); got != 2 {
		t.Fatalf("argmax %d, want 2 (first of ties)", got)
	}
}

// Argmax is the one class decision of the servers and the experiments:
// -1 when there is nothing to decide, the first element as the initial
// best (so a NaN there wins), ties to the lowest index.
func TestArgmaxClassDecision(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	vec := func(v ...float32) *Tensor {
		x := NewVec(len(v))
		copy(x.Data, v)
		return x
	}
	cases := []struct {
		name string
		x    *Tensor
		want int
	}{
		{"nil", nil, -1},
		{"empty", &Tensor{}, -1},
		{"NaN first", vec(nan, 1, 2), 0},
		{"NaN later is never a maximum", vec(1, nan, 3, nan), 2},
		{"ties go to the lowest index", vec(0, 4, 4, -1, 4), 1},
		{"all equal", vec(2, 2, 2), 0},
		{"all -Inf", vec(-inf, -inf, -inf), 0},
		{"-Inf first, finite later", vec(-inf, -7, -inf), 1},
	}
	for _, c := range cases {
		if got := c.x.Argmax(); got != c.want {
			t.Errorf("%s: Argmax = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestConvOutDim(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{224, 11, 4, 2, 55}, // AlexNet conv1
		{224, 3, 1, 1, 224}, // VGG same-conv
		{224, 7, 2, 3, 112}, // ResNet stem
		{13, 3, 1, 1, 13},
	}
	for _, c := range cases {
		if got := ConvOutDim(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutDim(%d,%d,%d,%d)=%d want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	x := randTensor("convid", 1, 3, 5, 5)
	// 1x1 conv with identity weights per channel maps input to itself.
	w := New(3, 3, 1, 1)
	for c := 0; c < 3; c++ {
		w.Set(c, c, 0, 0, 1)
	}
	y := Conv2D(x, w, nil, ConvParams{OutC: 3, Kernel: 1, Stride: 1, Pad: 0, Groups: 1})
	if !y.SameShape(x) {
		t.Fatalf("shape %v want %v", y.Shape(), x.Shape())
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatalf("identity conv altered data at %d", i)
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1x1x3x3 input, 3x3 all-ones kernel, pad 1: center output = sum of all.
	x := New(1, 1, 3, 3)
	for i := range x.Data {
		x.Data[i] = float32(i + 1) // 1..9
	}
	w := New(1, 1, 3, 3)
	w.Fill(1)
	y := Conv2D(x, w, nil, ConvParams{OutC: 1, Kernel: 3, Stride: 1, Pad: 1})
	if y.H != 3 || y.W != 3 {
		t.Fatalf("shape %v", y.Shape())
	}
	if got := y.At(0, 0, 1, 1); got != 45 {
		t.Fatalf("center %v want 45", got)
	}
	// corner (0,0) sees elements 1,2,4,5
	if got := y.At(0, 0, 0, 0); got != 12 {
		t.Fatalf("corner %v want 12", got)
	}
}

func TestConv2DBias(t *testing.T) {
	x := New(1, 1, 2, 2)
	w := New(1, 1, 1, 1)
	w.Fill(0)
	b := NewVec(1)
	b.Data[0] = 3.5
	y := Conv2D(x, w, b, ConvParams{OutC: 1, Kernel: 1, Stride: 1})
	for _, v := range y.Data {
		if v != 3.5 {
			t.Fatalf("bias not applied: %v", v)
		}
	}
}

func TestConv2DDepthwise(t *testing.T) {
	// Depthwise conv: groups == C. Each channel convolved independently.
	x := randTensor("dw", 1, 4, 6, 6)
	w := New(4, 1, 3, 3)
	wsrc := fixrand.NewKeyed("dww")
	for i := range w.Data {
		w.Data[i] = float32(wsrc.NormFloat64())
	}
	y := Conv2D(x, w, nil, ConvParams{OutC: 4, Kernel: 3, Stride: 1, Pad: 1, Groups: 4})
	if y.C != 4 || y.H != 6 {
		t.Fatalf("shape %v", y.Shape())
	}
	// Channel 0 of output must not depend on channel 1 of input.
	x2 := x.Clone()
	x2.Set(0, 1, 3, 3, x2.At(0, 1, 3, 3)+100)
	y2 := Conv2D(x2, w, nil, ConvParams{OutC: 4, Kernel: 3, Stride: 1, Pad: 1, Groups: 4})
	for h := 0; h < 6; h++ {
		for wi := 0; wi < 6; wi++ {
			if y.At(0, 0, h, wi) != y2.At(0, 0, h, wi) {
				t.Fatal("depthwise channel 0 depends on channel 1")
			}
		}
	}
}

func TestConv2DPanicsOnBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong weight size")
		}
	}()
	x := New(1, 3, 4, 4)
	w := New(1, 1, 1, 1)
	Conv2D(x, w, nil, ConvParams{OutC: 8, Kernel: 3, Stride: 1, Pad: 1})
}

func TestMaxPool(t *testing.T) {
	x := New(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := MaxPool2D(x, PoolParams{Kernel: 2, Stride: 2})
	want := []float32{5, 7, 13, 15}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("maxpool[%d]=%v want %v", i, y.Data[i], v)
		}
	}
}

func TestMaxPoolIgnoresPadding(t *testing.T) {
	x := New(1, 1, 2, 2)
	x.Fill(-5)
	y := MaxPool2D(x, PoolParams{Kernel: 3, Stride: 1, Pad: 1})
	for _, v := range y.Data {
		if v != -5 {
			t.Fatalf("padding treated as zero in maxpool: %v", v)
		}
	}
}

func TestAvgPool(t *testing.T) {
	x := New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	y := AvgPool2D(x, PoolParams{Kernel: 2, Stride: 2})
	if y.Data[0] != 2.5 {
		t.Fatalf("avgpool %v want 2.5", y.Data[0])
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := New(2, 3, 4, 4)
	x.Fill(2)
	y := GlobalAvgPool2D(x)
	if y.N != 2 || y.C != 3 || y.H != 1 || y.W != 1 {
		t.Fatalf("shape %v", y.Shape())
	}
	for _, v := range y.Data {
		if v != 2 {
			t.Fatalf("gap value %v want 2", v)
		}
	}
}

func TestReLU(t *testing.T) {
	x := NewVec(3)
	copy(x.Data, []float32{-1, 0, 2})
	y := ReLU(x)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("relu %v", y.Data)
	}
	if x.Data[0] != -1 {
		t.Fatal("relu mutated input")
	}
}

func TestLeakyReLU(t *testing.T) {
	x := NewVec(2)
	copy(x.Data, []float32{-10, 10})
	y := LeakyReLU(x, 0.1)
	if y.Data[0] != -1 || y.Data[1] != 10 {
		t.Fatalf("leaky %v", y.Data)
	}
}

func TestSigmoidBounds(t *testing.T) {
	x := NewVec(3)
	copy(x.Data, []float32{-100, 0, 100})
	y := Sigmoid(x)
	if y.Data[0] > 1e-6 || math.Abs(float64(y.Data[1]-0.5)) > 1e-6 || y.Data[2] < 1-1e-6 {
		t.Fatalf("sigmoid %v", y.Data)
	}
}

func TestFC(t *testing.T) {
	x := New(1, 2, 1, 1)
	copy(x.Data, []float32{1, 2})
	w := New(1, 6, 1, 1) // [3 out, 2 in]
	copy(w.Data, []float32{1, 0, 0, 1, 1, 1})
	b := NewVec(3)
	copy(b.Data, []float32{0, 0, 10})
	y := FC(x, w, b, 3)
	want := []float32{1, 2, 13}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("fc[%d]=%v want %v", i, y.Data[i], v)
		}
	}
}

func TestFCBatch(t *testing.T) {
	x := New(2, 3, 1, 1)
	copy(x.Data, []float32{1, 0, 0, 0, 1, 0})
	w := New(1, 9, 1, 1)
	for i := 0; i < 3; i++ {
		w.Data[i*3+i] = float32(i + 1) // diag(1,2,3)
	}
	y := FC(x, w, nil, 3)
	if y.At(0, 0, 0, 0) != 1 || y.At(1, 1, 0, 0) != 2 {
		t.Fatalf("fc batch wrong: %v", y.Data)
	}
}

func TestBatchNorm(t *testing.T) {
	x := New(1, 2, 1, 2)
	copy(x.Data, []float32{1, 3, 10, 20})
	gamma, beta, mean, variance := NewVec(2), NewVec(2), NewVec(2), NewVec(2)
	gamma.Fill(1)
	copy(mean.Data, []float32{2, 15})
	copy(variance.Data, []float32{1, 25})
	y := BatchNorm(x, gamma, beta, mean, variance, 0)
	want := []float32{-1, 1, -1, 1}
	for i, v := range want {
		if math.Abs(float64(y.Data[i]-v)) > 1e-5 {
			t.Fatalf("bn[%d]=%v want %v", i, y.Data[i], v)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	x := randTensor("sm", 2, 7, 3, 3)
	y := Softmax(x)
	for n := 0; n < 2; n++ {
		for h := 0; h < 3; h++ {
			for w := 0; w < 3; w++ {
				var sum float64
				for c := 0; c < 7; c++ {
					v := y.At(n, c, h, w)
					if v < 0 || v > 1 {
						t.Fatalf("softmax out of range: %v", v)
					}
					sum += float64(v)
				}
				if math.Abs(sum-1) > 1e-5 {
					t.Fatalf("softmax sum %v", sum)
				}
			}
		}
	}
}

func TestSoftmaxPreservesArgmax(t *testing.T) {
	x := randTensor("sma", 1, 10, 1, 1)
	y := Softmax(x)
	if x.Argmax() != y.Argmax() {
		t.Fatal("softmax changed argmax")
	}
}

func TestAdd(t *testing.T) {
	a := randTensor("adda", 1, 2, 2, 2)
	b := randTensor("addb", 1, 2, 2, 2)
	y := Add(a, b)
	for i := range y.Data {
		if y.Data[i] != a.Data[i]+b.Data[i] {
			t.Fatal("add wrong")
		}
	}
}

func TestAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	Add(New(1, 1, 1, 1), New(1, 2, 1, 1))
}

func TestConcat(t *testing.T) {
	a := New(1, 2, 2, 2)
	a.Fill(1)
	b := New(1, 3, 2, 2)
	b.Fill(2)
	y := Concat(a, b)
	if y.C != 5 {
		t.Fatalf("concat C=%d want 5", y.C)
	}
	if y.At(0, 0, 0, 0) != 1 || y.At(0, 2, 0, 0) != 2 {
		t.Fatal("concat data placement wrong")
	}
}

func TestUpsample2x(t *testing.T) {
	x := New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	y := Upsample2x(x)
	if y.H != 4 || y.W != 4 {
		t.Fatalf("shape %v", y.Shape())
	}
	if y.At(0, 0, 0, 0) != 1 || y.At(0, 0, 1, 1) != 1 || y.At(0, 0, 3, 3) != 4 {
		t.Fatal("upsample values wrong")
	}
}

func TestLRNIdentityForZeroAlpha(t *testing.T) {
	x := randTensor("lrn", 1, 8, 3, 3)
	y := LRN(x, 5, 0, 0.75, 1)
	for i := range x.Data {
		if math.Abs(float64(y.Data[i]-x.Data[i])) > 1e-6 {
			t.Fatal("LRN with alpha=0, k=1 should be identity")
		}
	}
}

func TestLRNReducesMagnitude(t *testing.T) {
	x := New(1, 5, 1, 1)
	x.Fill(10)
	y := LRN(x, 5, 1e-1, 0.75, 1)
	for i := range y.Data {
		if math.Abs(float64(y.Data[i])) >= math.Abs(float64(x.Data[i])) {
			t.Fatal("LRN did not attenuate large responses")
		}
	}
}

// Property: conv with stride 1, pad k/2 (odd k) preserves spatial dims.
func TestConvSamePaddingProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, hw, kRaw uint8) bool {
		h := int(hw%10) + 3
		k := []int{1, 3, 5}[int(kRaw)%3]
		return ConvOutDim(h, k, 1, k/2) == h
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Every ...Into operator must overwrite every element of y: execution
// contexts hand them recycled buffers. Each runs here into an oversized
// NaN-filled y and must equal its allocating form bit for bit — which
// AvgPool2D would not if it still skipped the store for a window with no
// valid tap (the 1x1 kernel under pad 1 below has four of them).
func TestIntoOverwritesStaleOutput(t *testing.T) {
	src := fixrand.NewKeyed("into-stale")
	rnd := func(n, c, h, w int) *Tensor {
		x := New(n, c, h, w)
		for i := range x.Data {
			x.Data[i] = float32(src.NormFloat64())
		}
		return x
	}
	x, x2 := rnd(2, 3, 6, 6), rnd(2, 3, 6, 6)
	vec := func() *Tensor { v := rnd(1, 3, 1, 1); v.Data[0] = 1.5; return v }
	gamma, beta, mean, variance := vec(), vec(), vec(), vec()
	for i := range variance.Data {
		variance.Data[i] = 1 + variance.Data[i]*variance.Data[i]
	}
	cw, cb := rnd(4, 3, 3, 3), rnd(1, 4, 1, 1)
	cp := ConvParams{OutC: 4, Kernel: 3, Stride: 2, Pad: 1}
	fw, fb := rnd(1, 5*3*6*6, 1, 1), rnd(1, 5, 1, 1)
	cases := []struct {
		name  string
		alloc func() *Tensor
		into  func(y *Tensor)
	}{
		{"conv", func() *Tensor { return Conv2D(x, cw, cb, cp) }, func(y *Tensor) { Conv2DInto(x, cw, cb, cp, y) }},
		{"maxpool", func() *Tensor { return MaxPool2D(x, PoolParams{3, 2, 1}) }, func(y *Tensor) { MaxPool2DInto(x, PoolParams{3, 2, 1}, y) }},
		{"avgpool", func() *Tensor { return AvgPool2D(x, PoolParams{2, 2, 0}) }, func(y *Tensor) { AvgPool2DInto(x, PoolParams{2, 2, 0}, y) }},
		{"avgpool-empty-windows", func() *Tensor { return AvgPool2D(x, PoolParams{1, 1, 1}) }, func(y *Tensor) { AvgPool2DInto(x, PoolParams{1, 1, 1}, y) }},
		{"gap", func() *Tensor { return GlobalAvgPool2D(x) }, func(y *Tensor) { GlobalAvgPool2DInto(x, y) }},
		{"relu", func() *Tensor { return ReLU(x) }, func(y *Tensor) { ReLUInto(x, y) }},
		{"leaky", func() *Tensor { return LeakyReLU(x, 0.1) }, func(y *Tensor) { LeakyReLUInto(x, 0.1, y) }},
		{"sigmoid", func() *Tensor { return Sigmoid(x) }, func(y *Tensor) { SigmoidInto(x, y) }},
		{"fc", func() *Tensor { return FC(x, fw, fb, 5) }, func(y *Tensor) { FCInto(x, fw, fb, 5, y) }},
		{"batchnorm", func() *Tensor { return BatchNorm(x, gamma, beta, mean, variance, 1e-5) },
			func(y *Tensor) { BatchNormInto(x, gamma, beta, mean, variance, 1e-5, y) }},
		{"lrn", func() *Tensor { return LRN(x, 3, 1e-2, 0.75, 1) }, func(y *Tensor) { LRNInto(x, 3, 1e-2, 0.75, 1, y) }},
		{"softmax", func() *Tensor { return Softmax(x) }, func(y *Tensor) { SoftmaxInto(x, y) }},
		{"add", func() *Tensor { return Add(x, x2) }, func(y *Tensor) { AddInto(x, x2, y) }},
		{"concat", func() *Tensor { return Concat(x, x2, x) }, func(y *Tensor) { ConcatInto([]*Tensor{x, x2, x}, y) }},
		{"upsample", func() *Tensor { return Upsample2x(x) }, func(y *Tensor) { Upsample2xInto(x, y) }},
		{"scale", func() *Tensor {
			y := x.Clone()
			for i := range y.Data {
				c := i / 36 % 3
				y.Data[i] = gamma.Data[c]*x.Data[i] + beta.Data[c]
			}
			return y
		}, func(y *Tensor) { ScaleInto(x, gamma, beta, y) }},
		{"flatten", func() *Tensor { y := x.Clone(); y.C, y.H, y.W = 3*6*6, 1, 1; return y }, func(y *Tensor) { FlattenInto(x, y) }},
	}
	nan := float32(math.NaN())
	for _, c := range cases {
		want := c.alloc()
		y := New(1, 1, 1, 4096) // larger than any output: Resize must reuse it
		y.Fill(nan)
		backing := &y.Data[0]
		c.into(y)
		if y.Shape() != want.Shape() {
			t.Errorf("%s: Into shape %v, allocating form %v", c.name, y.Shape(), want.Shape())
			continue
		}
		if &y.Data[0] != backing {
			t.Errorf("%s: Into replaced a backing array that was large enough", c.name)
		}
		for i := range want.Data {
			if math.Float32bits(y.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Errorf("%s: element %d is %v on a recycled buffer, %v on a fresh one", c.name, i, y.Data[i], want.Data[i])
				break
			}
		}
	}
	// Elementwise operators may run in place; flatten in place is a view.
	inplace := x.Clone()
	ReLUInto(inplace, inplace)
	if want := ReLU(x); !reflect.DeepEqual(inplace.Data, want.Data) {
		t.Error("ReLUInto in place differs from ReLU")
	}
	view := x.Clone()
	data := &view.Data[0]
	FlattenInto(view, view)
	if view.Shape() != [4]int{2, 108, 1, 1} || &view.Data[0] != data {
		t.Errorf("FlattenInto in place: shape %v, copied=%v", view.Shape(), &view.Data[0] != data)
	}
}

func TestResize(t *testing.T) {
	y := New(1, 2, 3, 4)
	backing := &y.Data[0]
	y.Resize(2, 3, 2, 1)
	if y.Shape() != [4]int{2, 3, 2, 1} || len(y.Data) != 12 || &y.Data[0] != backing {
		t.Fatalf("shrinking Resize: shape %v len %d moved=%v", y.Shape(), len(y.Data), &y.Data[0] != backing)
	}
	y.Resize(1, 2, 3, 4)
	if len(y.Data) != 24 || &y.Data[0] != backing {
		t.Fatal("Resize back within capacity must reuse the backing array")
	}
	y.Resize(5, 5, 5, 5)
	if len(y.Data) != 625 {
		t.Fatalf("growing Resize: len %d", len(y.Data))
	}
	for _, v := range y.Data {
		if v != 0 {
			t.Fatal("a grown buffer must be zeroed")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Resize accepted a non-positive dimension")
		}
	}()
	y.Resize(1, 0, 1, 1)
}
