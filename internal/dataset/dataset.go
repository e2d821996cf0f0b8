// Package dataset synthesizes the evaluation data of the paper's
// methodology: an ImageNet-like benign classification set (class
// templates plus observation noise), the ImageNet-C-like corrupted set
// (15 corruption types at 5 severity levels), and traffic-intersection
// scenes with ground-truth vehicle boxes for the detection examples.
// Everything is deterministic given seeds.
package dataset

import (
	"fmt"
	"runtime"
	"strconv"

	"edgeinfer/internal/fanout"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/tensor"
)

// Canonical proxy-image geometry.
const (
	NumClasses = 100
	ImgC       = 3
	ImgHW      = 32
)

// Sample is one labelled image.
type Sample struct {
	Image *tensor.Tensor
	Label int
}

// templateCorrelation is how much of every class template is a shared
// base pattern. Natural image classes share most of their energy
// (backgrounds, lighting); only a fraction is class-discriminative.
// This drives realistic (30-50%) top-1 error under observation noise.
const templateCorrelation = 0.94

// Templates returns the class prototype images: smooth, unit-energy
// patterns generated from a coarse random grid, bilinearly upsampled,
// all sharing a common base component (see templateCorrelation).
// The same seed always yields byte-identical templates; classifier
// proxies embed these in their final layer. The templates are views of
// one [classes, ImgC, ImgHW, ImgHW] batch that TemplatesInto fills.
func Templates(seed string, classes int) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, classes)
	if classes == 0 {
		return ts
	}
	all := new(tensor.Tensor)
	TemplatesInto(seed, 0, classes, all)
	const size = ImgC * ImgHW * ImgHW
	for c := range ts {
		ts[c] = &tensor.Tensor{N: 1, C: ImgC, H: ImgHW, W: ImgHW, Data: all.Data[c*size : (c+1)*size : (c+1)*size]}
	}
	return ts
}

// TemplatesInto writes the templates of classes first, ..., first+n-1
// (those Templates returns at the same indices) into y, Resized to
// [n, ImgC, ImgHW, ImgHW], so a caller embedding templates a few at a
// time reuses one batch tensor.
func TemplatesInto(seed string, first, n int, y *tensor.Tensor) {
	y.Resize(n, ImgC, ImgHW, ImgHW)
	// Every class mixes in the same base grid, so it is drawn once.
	src := fixrand.NewKeyed(seed + "/base")
	var base coarseGrid
	for ch := range base {
		for i := range base[ch] {
			for j := range base[ch][i] {
				base[ch][i][j] = src.NormFloat64()
			}
		}
	}
	const size = ImgC * ImgHW * ImgHW
	for i := 0; i < n; i++ {
		template(seed+"/class"+strconv.Itoa(first+i), &base, y.Data[i*size:][:size])
	}
}

// grid is the side of the coarse random grid a template is upsampled
// from.
const grid = 4

// coarseGrid holds one value per channel, row and column of the coarse
// grid.
type coarseGrid [ImgC][grid][grid]float64

// upsampleTap is where one row (or column) of a template samples the
// coarse grid: the two cells it lies between, its fractional distance d
// from the first, and 1-d.
type upsampleTap struct {
	i0, i1 int
	d, e   float64
}

// upsampleTaps are the bilinear coordinates of every row of a template
// and, the image being square, of every column: the same for every
// channel and class, so computed once.
var upsampleTaps = func() (taps [ImgHW]upsampleTap) {
	scale := float64(grid-1) / float64(ImgHW-1)
	for i := range taps {
		f := float64(i) * scale
		i0 := int(f)
		d := f - float64(i0)
		taps[i] = upsampleTap{i0, min(i0+1, grid-1), d, 1 - d}
	}
	return taps
}()

// template writes one smooth pattern into dst (ImgC×ImgHW×ImgHW values,
// channel-major): a grid x grid random grid per channel (mixed with the
// shared base grid when base is not nil), bilinearly upsampled to ImgHW,
// normalized to unit RMS.
func template(key string, base *coarseGrid, dst []float32) {
	src := fixrand.NewKeyed(key)
	rho := float64(templateCorrelation)
	ownWeight := sqrt64(1 - rho*rho)
	var coarse coarseGrid
	for ch := range coarse {
		for i := range coarse[ch] {
			for j := range coarse[ch][i] {
				// The class-distinctive component is sparse: only some
				// grid cells differ from the shared base (real object
				// classes differ in localized structure, not everywhere).
				v := src.NormFloat64()
				if src.Float64() > 0.4 {
					v = 0
				} else {
					v *= 1.58 // restore unit variance of the sparse part
				}
				if base != nil {
					v = rho*base[ch][i][j] + ownWeight*v
				}
				coarse[ch][i][j] = v
			}
		}
	}
	dst = dst[:ImgC*ImgHW*ImgHW]
	var sumsq float64
	for ch := range coarse {
		cg := &coarse[ch]
		for y, ty := range &upsampleTaps {
			// A cell's bilinear weight is (its row weight)·(its column
			// weight), multiplied in that order, so the row's products
			// are formed once per row.
			var top, bot [grid]float64
			for i := range top {
				top[i] = cg[ty.i0][i] * ty.e
				bot[i] = cg[ty.i1][i] * ty.d
			}
			out := dst[(ch*ImgHW+y)*ImgHW:][:ImgHW]
			for x, tx := range &upsampleTaps {
				v := top[tx.i0]*tx.e + bot[tx.i0]*tx.e + top[tx.i1]*tx.d + bot[tx.i1]*tx.d
				out[x] = float32(v)
				sumsq += v * v
			}
		}
	}
	rms := float32(1)
	if sumsq > 0 {
		rms = float32(sumsq / float64(len(dst)))
	}
	inv := 1 / sqrt32(rms)
	for i := range dst {
		dst[i] *= inv
	}
}

func sqrt64(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 30; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 1
	}
	x := v
	for i := 0; i < 24; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// BenignConfig parameterizes the benign set.
type BenignConfig struct {
	Seed       string
	Classes    int
	PerClass   int
	NoiseSigma float64 // observation noise on top of the class template
}

// DefaultBenign mirrors the paper's benign subset: 100 classes. PerClass
// is configurable (the paper uses 50).
func DefaultBenign(perClass int) BenignConfig {
	return BenignConfig{Seed: "imagenet-proxy", Classes: NumClasses, PerClass: perClass, NoiseSigma: 3.8}
}

// Benign synthesizes the benign dataset: per-class template plus i.i.d.
// Gaussian observation noise. Samples are drawn across GOMAXPROCS
// goroutines, each from its own keyed stream into its own slot, so the
// set is the same on any number of cores. A non-positive Classes or
// PerClass gives an empty set.
func Benign(cfg BenignConfig) []Sample {
	if cfg.Classes <= 0 || cfg.PerClass <= 0 {
		return nil
	}
	tpl := Templates(cfg.Seed, cfg.Classes)
	out := make([]Sample, cfg.Classes*cfg.PerClass)
	synthesize(len(out), func(k int) {
		c, i := k/cfg.PerClass, k%cfg.PerClass
		src := fixrand.NewKeyed(fmt.Sprintf("%s/benign/c%d/i%d", cfg.Seed, c, i))
		img := tpl[c].Clone()
		for j := range img.Data {
			img.Data[j] += float32(cfg.NoiseSigma * src.NormFloat64())
		}
		out[k] = Sample{Image: img, Label: c}
	})
	return out
}

// synthesize runs draw(k) for every k in [0,n) across GOMAXPROCS
// goroutines. Each draw writes only its own slot.
func synthesize(n int, draw func(k int)) {
	err := fanout.ForEach(runtime.GOMAXPROCS(0), n, func(k int) error {
		draw(k)
		return nil
	})
	if err != nil {
		panic(err) // no draw returns an error
	}
}
