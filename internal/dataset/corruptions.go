package dataset

import (
	"fmt"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/tensor"
)

// Corruption identifies one of the 15 corruption types of the
// adversarially perturbed dataset (the ImageNet-C taxonomy the paper
// uses), each applied at severity levels 1..5.
type Corruption int

const (
	GaussianNoise Corruption = iota
	ShotNoise
	ImpulseNoise
	SpeckleNoise
	GaussianBlur
	DefocusBlur
	MotionBlur
	ZoomBlur
	Brightness
	Contrast
	Saturate
	Fog
	Frost
	Snow
	Pixelate
)

// Corruptions lists all 15 types.
func Corruptions() []Corruption {
	out := make([]Corruption, 15)
	for i := range out {
		out[i] = Corruption(i)
	}
	return out
}

var corruptionNames = [...]string{
	"gaussian_noise", "shot_noise", "impulse_noise", "speckle_noise",
	"gaussian_blur", "defocus_blur", "motion_blur", "zoom_blur",
	"brightness", "contrast", "saturate", "fog", "frost", "snow", "pixelate",
}

// String implements fmt.Stringer.
func (c Corruption) String() string {
	if int(c) < len(corruptionNames) {
		return corruptionNames[c]
	}
	return fmt.Sprintf("corruption(%d)", int(c))
}

// sev maps severity 1..5 to a [0.2, 1.0] amplitude.
func sev(severity int) float64 {
	if severity < 1 {
		severity = 1
	}
	if severity > 5 {
		severity = 5
	}
	return float64(severity) / 5
}

// Corrupt applies the corruption at the given severity to a copy of the
// image. The noise stream is seeded by key so the corrupted datasets are
// reproducible.
func Corrupt(img *tensor.Tensor, c Corruption, severity int, key string) *tensor.Tensor {
	out := img.Clone()
	s := sev(severity)
	src := fixrand.NewKeyed(fmt.Sprintf("corrupt/%s/%d/%s", c, severity, key))
	switch c {
	case GaussianNoise:
		addNoise(out, src, 2.2*s, false)
	case ShotNoise:
		// signal-dependent noise
		for i, v := range out.Data {
			out.Data[i] += float32(1.8 * s * float64(absf(v)+0.3) * src.NormFloat64())
		}
	case ImpulseNoise:
		n := int(0.25 * s * float64(out.Len()))
		for i := 0; i < n; i++ {
			idx := src.Intn(out.Len())
			if src.Intn(2) == 0 {
				out.Data[idx] = 4
			} else {
				out.Data[idx] = -4
			}
		}
	case SpeckleNoise:
		for i, v := range out.Data {
			out.Data[i] = v * (1 + float32(1.6*s*src.NormFloat64()))
		}
	case GaussianBlur, DefocusBlur:
		passes := 1 + int(4*s)
		for i := 0; i < passes; i++ {
			boxBlur(out)
		}
	case MotionBlur:
		hBlur(out, 1+int(7*s))
	case ZoomBlur:
		zoomBlend(out, 1+0.35*s)
	case Brightness:
		for i := range out.Data {
			out.Data[i] += float32(2.4 * s)
		}
	case Contrast:
		k := float32(1 - 0.9*s)
		for i := range out.Data {
			out.Data[i] *= k
		}
	case Saturate:
		// amplify channel 0, attenuate channel 2
		for y := 0; y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				out.Set(0, 0, y, x, out.At(0, 0, y, x)*(1+float32(1.5*s)))
				out.Set(0, 2, y, x, out.At(0, 2, y, x)*(1-float32(0.8*s)))
			}
		}
	case Fog:
		fog := tensor.New(1, ImgC, ImgHW, ImgHW)
		template("fogfield/"+key, nil, fog.Data)
		for i := range out.Data {
			out.Data[i] = out.Data[i]*(1-float32(0.6*s)) + fog.Data[i]*float32(2.5*s)
		}
	case Frost:
		frost := tensor.New(1, ImgC, ImgHW, ImgHW)
		template("frostfield", nil, frost.Data)
		for i := range out.Data {
			out.Data[i] += frost.Data[i] * float32(2.2*s)
		}
	case Snow:
		n := int(0.12 * s * float64(out.Len()))
		for i := 0; i < n; i++ {
			out.Data[src.Intn(out.Len())] = 3.5
		}
	case Pixelate:
		block := 1 + int(6*s)
		pixelate(out, block)
	}
	return out
}

// addNoise adds i.i.d. Gaussian noise of the given sigma.
func addNoise(t *tensor.Tensor, src *fixrand.Source, sigma float64, _ bool) {
	for i := range t.Data {
		t.Data[i] += float32(sigma * src.NormFloat64())
	}
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// boxBlur applies a 3x3 box filter in place.
func boxBlur(t *tensor.Tensor) {
	src := t.Clone()
	for c := 0; c < t.C; c++ {
		for y := 0; y < t.H; y++ {
			for x := 0; x < t.W; x++ {
				var sum float32
				n := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= t.H || xx < 0 || xx >= t.W {
							continue
						}
						sum += src.At(0, c, yy, xx)
						n++
					}
				}
				t.Set(0, c, y, x, sum/float32(n))
			}
		}
	}
}

// hBlur applies a horizontal blur of the given radius.
func hBlur(t *tensor.Tensor, radius int) {
	src := t.Clone()
	for c := 0; c < t.C; c++ {
		for y := 0; y < t.H; y++ {
			for x := 0; x < t.W; x++ {
				var sum float32
				n := 0
				for dx := -radius; dx <= radius; dx++ {
					xx := x + dx
					if xx < 0 || xx >= t.W {
						continue
					}
					sum += src.At(0, c, y, xx)
					n++
				}
				t.Set(0, c, y, x, sum/float32(n))
			}
		}
	}
}

// zoomBlend averages the image with a center-zoomed copy.
func zoomBlend(t *tensor.Tensor, zoom float64) {
	src := t.Clone()
	cy, cx := float64(t.H-1)/2, float64(t.W-1)/2
	for c := 0; c < t.C; c++ {
		for y := 0; y < t.H; y++ {
			for x := 0; x < t.W; x++ {
				sy := int(cy + (float64(y)-cy)/zoom)
				sx := int(cx + (float64(x)-cx)/zoom)
				t.Set(0, c, y, x, (src.At(0, c, y, x)+src.At(0, c, sy, sx))/2)
			}
		}
	}
}

// pixelate replaces block-size squares by their mean.
func pixelate(t *tensor.Tensor, block int) {
	for c := 0; c < t.C; c++ {
		for y0 := 0; y0 < t.H; y0 += block {
			for x0 := 0; x0 < t.W; x0 += block {
				var sum float32
				n := 0
				for y := y0; y < y0+block && y < t.H; y++ {
					for x := x0; x < x0+block && x < t.W; x++ {
						sum += t.At(0, c, y, x)
						n++
					}
				}
				mean := sum / float32(n)
				for y := y0; y < y0+block && y < t.H; y++ {
					for x := x0; x < x0+block && x < t.W; x++ {
						t.Set(0, c, y, x, mean)
					}
				}
			}
		}
	}
}

// AdversarialConfig parameterizes the corrupted dataset.
type AdversarialConfig struct {
	Seed       string
	Classes    int
	PerClass   int
	Severities []int
	Types      []Corruption
}

// DefaultAdversarial mirrors the paper's Table IV setup: all 15 types at
// severities 1 and 5, 100 classes. PerClass is configurable (the paper
// uses 20).
func DefaultAdversarial(perClass int) AdversarialConfig {
	return AdversarialConfig{
		Seed: "imagenet-proxy", Classes: NumClasses, PerClass: perClass,
		Severities: []int{1, 5}, Types: Corruptions(),
	}
}

// AdversarialSample is a corrupted labelled image.
type AdversarialSample struct {
	Sample
	Type     Corruption
	Severity int
}

// Adversarial synthesizes the corrupted dataset: for each type, severity
// and class, PerClass corrupted benign images. The noisy benign image of
// a (class, i) key is the same under every type and severity, so it is
// drawn once and corrupted into each (Corrupt copies it). Both passes run
// across GOMAXPROCS goroutines, each sample from its own keyed streams
// into its own slot, so the set is the same on any number of cores. A
// non-positive Classes or PerClass gives an empty set.
func Adversarial(cfg AdversarialConfig) []AdversarialSample {
	if cfg.Classes <= 0 || cfg.PerClass <= 0 || len(cfg.Types) == 0 || len(cfg.Severities) == 0 {
		return nil
	}
	tpl := Templates(cfg.Seed, cfg.Classes)
	perSet := cfg.Classes * cfg.PerClass // samples per (type, severity)
	keys := make([]string, perSet)
	bases := make([]*tensor.Tensor, perSet)
	synthesize(perSet, func(k int) {
		c, i := k/cfg.PerClass, k%cfg.PerClass
		keys[k] = fmt.Sprintf("%s/adv/c%d/i%d", cfg.Seed, c, i)
		src := fixrand.NewKeyed(keys[k])
		img := tpl[c].Clone()
		for j := range img.Data {
			img.Data[j] += float32(3.8 * src.NormFloat64())
		}
		bases[k] = img
	})
	out := make([]AdversarialSample, len(cfg.Types)*len(cfg.Severities)*perSet)
	synthesize(len(out), func(k int) {
		set, b := k/perSet, k%perSet
		ct, sv := cfg.Types[set/len(cfg.Severities)], cfg.Severities[set%len(cfg.Severities)]
		out[k] = AdversarialSample{
			Sample:   Sample{Image: Corrupt(bases[b], ct, sv, keys[b]), Label: b / cfg.PerClass},
			Type:     ct,
			Severity: sv,
		}
	})
	return out
}
