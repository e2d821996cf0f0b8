package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
)

// The frozen reference loops: Conv2DInto, MaxPool2DInto and
// AvgPool2DInto as they stood when every output element was computed on
// its own, each tap through an At() index. The operators have since been
// restructured for speed; they must still give every element exactly the
// same sequence of float32 operations, so these bodies stay as they were.

func frozenConv2DInto(x, w, b *Tensor, p ConvParams, y *Tensor) {
	if p.Groups <= 0 {
		p.Groups = 1
	}
	if x.C%p.Groups != 0 || p.OutC%p.Groups != 0 {
		panic(fmt.Sprintf("tensor: conv groups %d do not divide channels in=%d out=%d", p.Groups, x.C, p.OutC))
	}
	icg := x.C / p.Groups // input channels per group
	ocg := p.OutC / p.Groups
	if want := p.OutC * icg * p.Kernel * p.Kernel; w.Len() != want {
		panic(fmt.Sprintf("tensor: conv weight len %d, want %d", w.Len(), want))
	}
	oh := ConvOutDim(x.H, p.Kernel, p.Stride, p.Pad)
	ow := ConvOutDim(x.W, p.Kernel, p.Stride, p.Pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d not positive (in %dx%d k=%d s=%d p=%d)", oh, ow, x.H, x.W, p.Kernel, p.Stride, p.Pad))
	}
	y.Resize(x.N, p.OutC, oh, ow)
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < p.OutC; oc++ {
			g := oc / ocg
			var bias float32
			if b != nil {
				bias = b.Data[oc]
			}
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					var acc float32
					for c := 0; c < icg; c++ {
						ic := g*icg + c
						for kh := 0; kh < p.Kernel; kh++ {
							ih := i*p.Stride + kh - p.Pad
							if ih < 0 || ih >= x.H {
								continue
							}
							for kw := 0; kw < p.Kernel; kw++ {
								iw := j*p.Stride + kw - p.Pad
								if iw < 0 || iw >= x.W {
									continue
								}
								wv := w.Data[((oc*icg+c)*p.Kernel+kh)*p.Kernel+kw]
								acc += wv * x.At(n, ic, ih, iw)
							}
						}
					}
					y.Set(n, oc, i, j, acc+bias)
				}
			}
		}
	}
}

func frozenMaxPool2DInto(x *Tensor, p PoolParams, y *Tensor) {
	oh := ConvOutDim(x.H, p.Kernel, p.Stride, p.Pad)
	ow := ConvOutDim(x.W, p.Kernel, p.Stride, p.Pad)
	y.Resize(x.N, x.C, oh, ow)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := float32(math.Inf(-1))
					for kh := 0; kh < p.Kernel; kh++ {
						ih := i*p.Stride + kh - p.Pad
						if ih < 0 || ih >= x.H {
							continue
						}
						for kw := 0; kw < p.Kernel; kw++ {
							iw := j*p.Stride + kw - p.Pad
							if iw < 0 || iw >= x.W {
								continue
							}
							if v := x.At(n, c, ih, iw); v > best {
								best = v
							}
						}
					}
					y.Set(n, c, i, j, best)
				}
			}
		}
	}
}

func frozenAvgPool2DInto(x *Tensor, p PoolParams, y *Tensor) {
	oh := ConvOutDim(x.H, p.Kernel, p.Stride, p.Pad)
	ow := ConvOutDim(x.W, p.Kernel, p.Stride, p.Pad)
	y.Resize(x.N, x.C, oh, ow)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					var sum float32
					count := 0
					for kh := 0; kh < p.Kernel; kh++ {
						ih := i*p.Stride + kh - p.Pad
						if ih < 0 || ih >= x.H {
							continue
						}
						for kw := 0; kw < p.Kernel; kw++ {
							iw := j*p.Stride + kw - p.Pad
							if iw < 0 || iw >= x.W {
								continue
							}
							sum += x.At(n, c, ih, iw)
							count++
						}
					}
					var avg float32
					if count > 0 {
						avg = sum / float32(count)
					}
					y.Set(n, c, i, j, avg)
				}
			}
		}
	}
}

// quickRand drives testing/quick from a fixrand stream, so a property's
// cases are the same on every run instead of being time-seeded.
func quickRand(key string) *rand.Rand { return rand.New(fixSource{fixrand.NewKeyed(key)}) }

type fixSource struct{ *fixrand.Source }

func (s fixSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s fixSource) Seed(int64)   {}

// sameBits reports whether two outputs are equal bit for bit, counting
// any two NaNs as equal: Go leaves the payload of an operation that
// meets two NaNs unspecified (0xffc00000 and 0x7fc00000 have both been
// seen where the order of the operands was the same).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkAgainstFrozen runs an operator into a recycled y (oversized and
// holding a finite stale value, so an element it fails to write shows)
// and the frozen loop into a fresh one, and describes the first
// difference; "" means none.
func checkAgainstFrozen(into, frozen func(y *Tensor)) string {
	want := new(Tensor)
	frozen(want)
	y := New(1, 1, 1, want.Len()+7)
	y.Fill(12345.5)
	into(y)
	if y.Shape() != want.Shape() {
		return fmt.Sprintf("shape %v, frozen loop %v", y.Shape(), want.Shape())
	}
	for i := range want.Data {
		if !sameBits(y.Data[i], want.Data[i]) {
			return fmt.Sprintf("element %d is %v (%#08x), frozen loop %v (%#08x)", i,
				y.Data[i], math.Float32bits(y.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
	return ""
}

// refValue draws a tensor element: about one in fifty is NaN, +Inf, -Inf
// or -0 — the values a corrupted weight or activation takes, and the
// ones a shortcut that multiplies padding by zero or seeds an
// accumulator differently gets wrong (0·Inf = NaN; -0 + +0 = +0).
func refValue(src *fixrand.Source) float32 {
	if src.Intn(50) == 0 {
		return [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}[src.Intn(4)]
	}
	return float32(src.NormFloat64())
}

func refTensor(src *fixrand.Source, n, c, h, w int) *Tensor {
	t := New(n, c, h, w)
	for i := range t.Data {
		t.Data[i] = refValue(src)
	}
	return t
}

// refCoverage counts the shape classes a sweep reached, so a generator
// change that stops producing one fails loudly instead of silently
// narrowing the sweep.
type refCoverage map[string]int

func (cv refCoverage) require(t *testing.T, classes ...string) {
	t.Helper()
	for _, c := range classes {
		if cv[c] == 0 {
			t.Errorf("sweep never produced a %s case (coverage %v)", c, map[string]int(cv))
		}
	}
}

// genConv draws one convolution: dense, grouped, depthwise or 1x1;
// kernel 1-5, stride 1-3, padding 0..k+1; input 1-9 on a side (so often
// narrower than the kernel), batch 1-3. One draw in five is the proxies'
// smoothing conv (depthwise k3 s1 p1) on an input of 1-4 a side, where
// the rows whose taps all lie inside the input are few or none.
func genConv(src *fixrand.Source, cv refCoverage) (x, w, b *Tensor, p ConvParams) {
	for {
		groups, icg, ocg := 1, 1+src.Intn(3), 1+src.Intn(3)
		k := 1 + src.Intn(5)
		kind := src.Intn(5)
		switch kind {
		case 1:
			groups = 2 + src.Intn(2)
		case 2: // depthwise, channel multiplier 1 or 2
			groups, icg, ocg = 1+src.Intn(4), 1, 1+src.Intn(2)
		case 3:
			k = 1
		case 4:
			groups, icg, ocg, k = 1+src.Intn(4), 1, 1, 3
		}
		p = ConvParams{OutC: groups * ocg, Kernel: k, Stride: 1 + src.Intn(3), Pad: src.Intn(k + 2), Groups: groups}
		n, h, wd := 1+src.Intn(3), 1+src.Intn(9), 1+src.Intn(9)
		if kind == 4 {
			p.Stride, p.Pad, h, wd = 1, 1, 1+src.Intn(4), 1+src.Intn(4)
		}
		if ConvOutDim(h, k, p.Stride, p.Pad) <= 0 || ConvOutDim(wd, k, p.Stride, p.Pad) <= 0 {
			continue
		}
		x = refTensor(src, n, groups*icg, h, wd)
		w = refTensor(src, p.OutC, icg, k, k)
		if src.Intn(4) > 0 {
			b = refTensor(src, 1, p.OutC, 1, 1)
		}
		cv.note(x, p.Kernel, p.Stride, p.Pad)
		switch {
		case icg == 1 && groups > 1:
			cv["depthwise"]++
		case groups > 1:
			cv["grouped"]++
		}
		if k == 1 {
			cv["1x1"]++
		}
		if icg == 1 {
			// The first output row that needs no padding row, if any.
			if i := (p.Pad + p.Stride - 1) / p.Stride; i < ConvOutDim(h, k, p.Stride, p.Pad) && i*p.Stride-p.Pad+k <= h {
				cv["depthwise full-height row"]++
			}
			if k == 3 && p.Stride == 1 && p.Pad == 1 && h == 1 && wd <= 3 {
				cv["depthwise k3s1p1 H=1 W<=3"]++
			}
		}
		return x, w, b, p
	}
}

func (cv refCoverage) note(x *Tensor, k, s, pad int) {
	if x.W < k && pad > 0 {
		cv["W<k padded"]++
	}
	if pad >= k {
		cv["pad>=k"]++
	}
	if s > 1 {
		cv["strided"]++
	}
	if x.N > 1 {
		cv["N>1"]++
	}
}

// genPool draws one pooling window over the same range of shapes as
// genConv. One draw in five is the proxies' pool (k2 s2 p0) on an input
// of 1-5 a side: on an odd side its last window hangs off the input
// (ConvOutDim(1, 2, 2, 0) is 1), so the windows are not all whole.
func genPool(src *fixrand.Source, cv refCoverage) (*Tensor, PoolParams) {
	for {
		k := 1 + src.Intn(5)
		p := PoolParams{Kernel: k, Stride: 1 + src.Intn(3), Pad: src.Intn(k + 2)}
		n, c, h, w := 1+src.Intn(3), 1+src.Intn(3), 1+src.Intn(9), 1+src.Intn(9)
		if src.Intn(5) == 0 {
			k, p, h, w = 2, PoolParams{Kernel: 2, Stride: 2}, 1+src.Intn(5), 1+src.Intn(5)
		}
		oh, ow := ConvOutDim(h, k, p.Stride, p.Pad), ConvOutDim(w, k, p.Stride, p.Pad)
		if oh <= 0 || ow <= 0 {
			continue
		}
		x := refTensor(src, n, c, h, w)
		cv.note(x, k, p.Stride, p.Pad)
		if k == 2 && p.Pad == 0 && (oh-1)*p.Stride+k <= h && (ow-1)*p.Stride+k <= w {
			cv["whole 2x2 windows"]++
		}
		if p == (PoolParams{Kernel: 2, Stride: 2}) {
			if h%2 == 1 || w%2 == 1 {
				cv["k2s2p0 odd side"]++
			}
			if h == 1 || w == 1 {
				cv["k2s2p0 side 1"]++
			}
		}
		return x, p
	}
}

// TestReferenceMatchesFrozenLoops sweeps the restructured reference
// operators against the frozen per-element loops over random shapes and
// values, non-finite ones included.
func TestReferenceMatchesFrozenLoops(t *testing.T) {
	type op struct {
		name  string
		check func(src *fixrand.Source, cv refCoverage) string
	}
	ops := []op{
		{"Conv2DInto", func(src *fixrand.Source, cv refCoverage) string {
			x, w, b, p := genConv(src, cv)
			return checkAgainstFrozen(func(y *Tensor) { Conv2DInto(x, w, b, p, y) },
				func(y *Tensor) { frozenConv2DInto(x, w, b, p, y) })
		}},
		{"MaxPool2DInto", func(src *fixrand.Source, cv refCoverage) string {
			x, p := genPool(src, cv)
			return checkAgainstFrozen(func(y *Tensor) { MaxPool2DInto(x, p, y) },
				func(y *Tensor) { frozenMaxPool2DInto(x, p, y) })
		}},
		{"AvgPool2DInto", func(src *fixrand.Source, cv refCoverage) string {
			x, p := genPool(src, cv)
			return checkAgainstFrozen(func(y *Tensor) { AvgPool2DInto(x, p, y) },
				func(y *Tensor) { frozenAvgPool2DInto(x, p, y) })
		}},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			cv := refCoverage{}
			err := quick.Check(func(seed uint64) bool {
				if diff := o.check(fixrand.New(seed), cv); diff != "" {
					t.Logf("seed %d: %s", seed, diff)
					return false
				}
				return true
			}, &quick.Config{MaxCount: 3000, Rand: quickRand("reference-sweep/" + o.name)})
			if err != nil {
				t.Fatal(err)
			}
			cv.require(t, "W<k padded", "pad>=k", "strided", "N>1")
			if o.name == "Conv2DInto" {
				cv.require(t, "depthwise", "grouped", "1x1", "depthwise full-height row", "depthwise k3s1p1 H=1 W<=3")
			} else {
				cv.require(t, "whole 2x2 windows", "k2s2p0 odd side", "k2s2p0 side 1")
			}
		})
	}
}

// TestReferenceSignedZeros reruns the sweep's shapes with every operand a
// signed zero. Every product is then ±0, so the output's sign is decided
// by where its accumulator starts and in what order it adds: a sum
// seeded with its first product, or with the bias, keeps a −0 the frozen
// loop's +0 seed turns into +0. The random sweep all but never meets
// such an element (one value in 200 is −0), so half the cases here are
// the worst one: input −0, weights +0, bias −0, every product −0.
func TestReferenceSignedZeros(t *testing.T) {
	src := fixrand.NewKeyed("reference-signed-zeros")
	negZero := float32(math.Copysign(0, -1))
	fill := func(worst bool, x *Tensor, params ...*Tensor) {
		for i := range x.Data {
			x.Data[i] = negZero
			if !worst && src.Intn(2) == 0 {
				x.Data[i] = 0
			}
		}
		for _, p := range params {
			if p == nil {
				continue
			}
			for i := range p.Data {
				p.Data[i] = 0
				if !worst && src.Intn(2) == 0 {
					p.Data[i] = negZero
				}
			}
		}
	}
	cv := refCoverage{}
	for i := 0; i < 1000; i++ {
		worst := i%2 == 0
		x, w, b, p := genConv(src, cv)
		fill(worst, x, w)
		if b != nil {
			fill(worst, b)
		}
		if diff := checkAgainstFrozen(func(y *Tensor) { Conv2DInto(x, w, b, p, y) },
			func(y *Tensor) { frozenConv2DInto(x, w, b, p, y) }); diff != "" {
			t.Fatalf("Conv2DInto %+v on %v: %s", p, x.Shape(), diff)
		}
		xp, pp := genPool(src, cv)
		fill(worst, xp)
		if diff := checkAgainstFrozen(func(y *Tensor) { AvgPool2DInto(xp, pp, y) },
			func(y *Tensor) { frozenAvgPool2DInto(xp, pp, y) }); diff != "" {
			t.Fatalf("AvgPool2DInto %+v on %v: %s", pp, xp.Shape(), diff)
		}
	}
	cv.require(t, "depthwise full-height row", "whole 2x2 windows")
}

// FuzzConv2DReference holds Conv2DInto to the frozen loop on shapes and
// raw float32 bit patterns taken from the fuzz input. geom's bytes pick,
// in order: batch (and, by its top bit, whether there is a bias), groups,
// input and output channels per group, kernel, stride, padding, and the
// input height (low nibble) and width (high nibble).
func FuzzConv2DReference(f *testing.F) {
	f.Add(uint64(0x3301_0102_0000), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0})
	f.Add(uint64(0x21_0203_0100_0201), []byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x80, 0, 0, 0xc0, 0x7f})
	f.Add(uint64(0x99_0300_0401_0101), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		g := func(i int) int { return int(geom >> (8 * i) & 0xff) }
		groups, icg, ocg, k := 1+g(1)%3, 1+g(2)%3, 1+g(3)%3, 1+g(4)%5
		p := ConvParams{OutC: groups * ocg, Kernel: k, Stride: 1 + g(5)%3, Pad: g(6) % (k + 2), Groups: groups}
		n, h, w := 1+g(0)%3, 1+(g(7)&15)%9, 1+(g(7)>>4)%9
		if ConvOutDim(h, k, p.Stride, p.Pad) <= 0 || ConvOutDim(w, k, p.Stride, p.Pad) <= 0 {
			return
		}
		next := 0
		fill := func(t *Tensor) *Tensor {
			for i := range t.Data {
				if len(data) >= 4 {
					o := next % (len(data) - 3)
					t.Data[i] = math.Float32frombits(uint32(data[o]) | uint32(data[o+1])<<8 | uint32(data[o+2])<<16 | uint32(data[o+3])<<24)
					next += 4
				}
			}
			return t
		}
		x := fill(New(n, groups*icg, h, w))
		wt := fill(New(p.OutC, icg, k, k))
		var b *Tensor
		if g(0)&0x80 != 0 {
			b = fill(NewVec(p.OutC))
		}
		if diff := checkAgainstFrozen(func(y *Tensor) { Conv2DInto(x, wt, b, p, y) },
			func(y *Tensor) { frozenConv2DInto(x, wt, b, p, y) }); diff != "" {
			t.Fatalf("%+v on %v: %s", p, x.Shape(), diff)
		}
	})
}

// FuzzAvgPool2DReference holds AvgPool2DInto to the frozen loop on
// shapes and raw float32 bit patterns taken from the fuzz input. geom's
// bytes pick, in order: batch, channels, kernel, stride, padding, and the
// input height (low nibble) and width (high nibble).
func FuzzAvgPool2DReference(f *testing.F) {
	f.Add(uint64(0x00_00_01_01_00_00), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0})
	f.Add(uint64(0x42_00_01_01_01_01), []byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x80, 0, 0, 0xc0, 0x7f})
	f.Add(uint64(0x88_02_00_02_02_00), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		g := func(i int) int { return int(geom >> (8 * i) & 0xff) }
		k := 1 + g(2)%5
		p := PoolParams{Kernel: k, Stride: 1 + g(3)%3, Pad: g(4) % (k + 2)}
		n, c, h, w := 1+g(0)%3, 1+g(1)%3, 1+(g(5)&15)%9, 1+(g(5)>>4)%9
		if ConvOutDim(h, k, p.Stride, p.Pad) <= 0 || ConvOutDim(w, k, p.Stride, p.Pad) <= 0 {
			return
		}
		x := New(n, c, h, w)
		if len(data) >= 4 {
			for i := range x.Data {
				o := 4 * i % (len(data) - 3)
				x.Data[i] = math.Float32frombits(uint32(data[o]) | uint32(data[o+1])<<8 | uint32(data[o+2])<<16 | uint32(data[o+3])<<24)
			}
		}
		if diff := checkAgainstFrozen(func(y *Tensor) { AvgPool2DInto(x, p, y) },
			func(y *Tensor) { frozenAvgPool2DInto(x, p, y) }); diff != "" {
			t.Fatalf("%+v on %v: %s", p, x.Shape(), diff)
		}
	})
}
