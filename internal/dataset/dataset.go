// Package dataset synthesizes the evaluation data of the paper's
// methodology: an ImageNet-like benign classification set (class
// templates plus observation noise), the ImageNet-C-like corrupted set
// (15 corruption types at 5 severity levels), and traffic-intersection
// scenes with ground-truth vehicle boxes for the detection examples.
// Everything is deterministic given seeds.
package dataset

import (
	"fmt"

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
// proxies embed these in their final layer.
func Templates(seed string, classes int) []*tensor.Tensor {
	// Every class mixes in the same base grid, so it is drawn once.
	src := fixrand.NewKeyed(seed + "/base")
	base := make([]float64, ImgC*grid*grid)
	for i := range base {
		base[i] = src.NormFloat64()
	}
	ts := make([]*tensor.Tensor, classes)
	for c := 0; c < classes; c++ {
		ts[c] = template(fmt.Sprintf("%s/class%d", seed, c), base)
	}
	return ts
}

// grid is the side of the coarse random grid a template is upsampled
// from.
const grid = 4

// upsampleTap is where one row (or column) of a template samples the
// coarse grid: the two cells it lies between and its fractional
// distance from the first.
type upsampleTap struct {
	i0, i1 int
	d      float64
}

// upsampleTaps are the bilinear coordinates of every row of a template
// and, the image being square, of every column: the same for every
// channel and class, so computed once.
var upsampleTaps = func() (taps [ImgHW]upsampleTap) {
	scale := float64(grid-1) / float64(ImgHW-1)
	for i := range taps {
		f := float64(i) * scale
		i0 := int(f)
		taps[i] = upsampleTap{i0, min(i0+1, grid-1), f - float64(i0)}
	}
	return taps
}()

// template builds one smooth pattern: a grid x grid random grid per
// channel (mixed with the shared base grid when base is not nil; base
// holds one standard normal per cell in channel, row, column order),
// bilinearly upsampled to ImgHW, normalized to unit RMS.
func template(key string, base []float64) *tensor.Tensor {
	src := fixrand.NewKeyed(key)
	rho := float64(templateCorrelation)
	ownWeight := sqrt64(1 - rho*rho)
	coarse := make([][][]float64, ImgC)
	for ch := range coarse {
		coarse[ch] = make([][]float64, grid)
		for i := range coarse[ch] {
			coarse[ch][i] = make([]float64, grid)
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
					v = rho*base[(ch*grid+i)*grid+j] + ownWeight*v
				}
				coarse[ch][i][j] = v
			}
		}
	}
	t := tensor.New(1, ImgC, ImgHW, ImgHW)
	var sumsq float64
	for ch := 0; ch < ImgC; ch++ {
		for y, ty := range upsampleTaps {
			for x, tx := range upsampleTaps {
				dy, dx := ty.d, tx.d
				v := coarse[ch][ty.i0][tx.i0]*(1-dy)*(1-dx) +
					coarse[ch][ty.i1][tx.i0]*dy*(1-dx) +
					coarse[ch][ty.i0][tx.i1]*(1-dy)*dx +
					coarse[ch][ty.i1][tx.i1]*dy*dx
				t.Set(0, ch, y, x, float32(v))
				sumsq += v * v
			}
		}
	}
	rms := float32(1)
	if sumsq > 0 {
		rms = float32(sumsq / float64(t.Len()))
	}
	inv := 1 / sqrt32(rms)
	for i := range t.Data {
		t.Data[i] *= inv
	}
	return t
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
// Gaussian observation noise.
func Benign(cfg BenignConfig) []Sample {
	tpl := Templates(cfg.Seed, cfg.Classes)
	var out []Sample
	for c := 0; c < cfg.Classes; c++ {
		for i := 0; i < cfg.PerClass; i++ {
			src := fixrand.NewKeyed(fmt.Sprintf("%s/benign/c%d/i%d", cfg.Seed, c, i))
			img := tpl[c].Clone()
			for k := range img.Data {
				img.Data[k] += float32(cfg.NoiseSigma * src.NormFloat64())
			}
			out = append(out, Sample{Image: img, Label: c})
		}
	}
	return out
}
