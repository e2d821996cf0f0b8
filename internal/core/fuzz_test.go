package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/planlint"
	"edgeinfer/internal/tensor"
)

// FuzzLoad throws arbitrary bytes (seeded with real plan prefixes) at the
// engine-plan loader and the static verifier: Load must return an error
// or a valid engine, never panic or hang, and it must err exactly when
// VerifyPlanData reports an error.
func FuzzLoad(f *testing.F) {
	g, err := models.BuildProxy("vgg16", models.DefaultProxyOptions())
	if err != nil {
		f.Fatal(err)
	}
	e, err := Build(g, DefaultConfig(gpusim.XavierNX(), 1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		f.Fatal(err)
	}
	plan := buf.Bytes()
	f.Add(plan)
	f.Add(plan[:len(plan)/2])
	f.Add([]byte("EDGERT01"))
	f.Add([]byte{})
	// corrupted header length
	bad := append([]byte(nil), plan...)
	if len(bad) > 12 {
		bad[8], bad[9] = 0xff, 0xff
	}
	f.Add(bad)
	// Hostile topologies, weight records and length fields (the crashers
	// the corruption tests pin down: duplicate layers, unknown input refs,
	// a cycle, a layer shadowing "data", a weight for the input layer,
	// zero-stride convs, giant shapes over truncated streams) seed the
	// mutator near the interesting paths.
	smallPlan, hlen := savedPlan(f)
	f.Add(smallPlan)
	// A calibrated INT8 plan: the only seed that reaches the
	// quantization-range check with ranges to mutate.
	int8Plan, _ := savedInt8Plan(f)
	f.Add(int8Plan)
	for _, hostile := range hostileHeaders(f, smallPlan, hlen) {
		f.Add(hostile)
	}
	hostileCount := append([]byte(nil), smallPlan...)
	binary.LittleEndian.PutUint32(hostileCount[12+hlen:], 0xffffffff)
	f.Add(hostileCount)
	// The first conv padded past its kernel: Load accepts it, and its
	// border windows lie wholly in the padding.
	f.Add(mutateHeader(f, smallPlan, hlen, func(h map[string]any) {
		for _, l := range h["Layers"].([]any) {
			if l := l.(map[string]any); l["Op"] == float64(graph.OpConv) {
				conv := l["Conv"].(map[string]any)
				conv["Pad"] = conv["Kernel"].(float64) + 1
				return
			}
		}
		f.Fatal("the plan has no conv")
	}))

	// An accepted plan reaches Engine.Infer on the serving path, where a
	// panic on a kernel worker goroutine takes the process down: with two
	// workers, it must answer or err.
	defer kernels.SetWorkers(kernels.SetWorkers(2))
	f.Fuzz(func(t *testing.T, data []byte) {
		// cap pathological sizes the mutator may produce
		if len(data) > 1<<22 {
			t.Skip()
		}
		e, err := Load(bytes.NewReader(data))
		if err == nil && e == nil {
			t.Fatal("nil engine without error")
		}
		// One gate: the verifier flags exactly what the loader rejects.
		if issues := VerifyPlanData(bytes.NewReader(data)); (err != nil) != planlint.HasErrors(issues) {
			t.Fatalf("Load err %v, but VerifyPlanData reports %v", err, issues)
		}
		if err != nil || !e.Numeric || !fuzzSized(e.Graph) {
			return
		}
		s := e.Graph.InputShape
		_, _ = e.Infer(tensor.New(s[0], s[1], s[2], s[3])) // an error is an answer too
	})
}

// fuzzSized reports whether one image through the plan stays small
// enough for a fuzz worker: activations and conv/fc multiply-adds at the
// declared input shape. Load bounds each activation and the planned
// slots (maxPlanElems), but not their sum over the layers nor the
// multiply-adds, and a plan at its bounds is too slow for a fuzz input.
func fuzzSized(g *graph.Graph) bool {
	const limit = 1 << 24
	var acts, macs int64
	for _, l := range g.Layers {
		elems := int64(1)
		for _, d := range l.OutShape {
			if d < 1 || d > limit {
				return false
			}
			if elems *= int64(d); elems > limit {
				return false
			}
		}
		acts += elems
		if w := l.Weights["w"]; w != nil && (l.Op == graph.OpConv || l.Op == graph.OpFC) {
			macs += elems * int64(w.Len()) / int64(max(l.OutShape[1], 1))
		}
		if acts > limit || macs > 4*limit {
			return false
		}
	}
	return true
}

// FuzzLoadTimingCache throws arbitrary bytes (seeded with real cache
// streams and hostile length fields) at the timing-cache loader: it must
// return an error or a valid cache, never panic or hang.
func FuzzLoadTimingCache(f *testing.F) {
	c := NewTimingCache()
	c.Insert("NX@1109MHz|hmma.t64x64x32.sk0.nchw.a1.p1|b1.ic64.s56x56-oc64.o56x56-k3.st1.g1|p1", 3.2e-5)
	c.Insert("NX@1109MHz|cuda.t32x32x8.sk2.nchw.a0.p0|b1.ic3.s224x224-oc64.o112x112-k7.st2.g1|p1", 1.1e-4)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		f.Fatal(err)
	}
	stream := buf.Bytes()
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte(timingCacheMagic))
	f.Add([]byte{})
	// hostile entry count
	badCount := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(badCount[8:], 0xffffffff)
	f.Add(badCount)
	// hostile key length on the first entry
	badKey := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(badKey[12:], 0x7fffffff)
	f.Add(badKey)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 {
			t.Skip()
		}
		c, err := LoadTimingCache(bytes.NewReader(data))
		if err == nil && c == nil {
			t.Fatal("nil cache without error")
		}
	})
}

// FuzzParseTimingKey: cache keys arrive from files on disk. Any string
// parses exactly as the frozen strings.Split parser does (same fields,
// same error text), and either fails to parse or parses to fields whose
// rendering is a fixed point — TimingKey of the parse re-parses to the
// same fields and renders to itself — and never panics.
func FuzzParseTimingKey(f *testing.F) {
	d := kernels.ConvDims{Batch: 1, InC: 64, H: 56, W: 56, OutC: 64, OutH: 56, OutW: 56, Kernel: 3, Stride: 1, Groups: 1}
	hmma := kernels.Variant{Family: kernels.FamHMMAConv, TileM: 64, TileN: 64, TileK: 32, FusedAct: true, Precision: tensor.FP16}
	cuda := kernels.Variant{Family: kernels.FamCUDAConv, TileM: 32, TileN: 32, TileK: 8, SplitK: 2, NHWC: true}
	f.Add(TimingKey("NX@1109MHz", hmma, d, tensor.FP16))
	f.Add(TimingKey("AGX@1377MHz", cuda, d, tensor.INT8))
	f.Add(TimingKey("a|b", cuda, d, tensor.FP32))                                      // a '|' inside the device segment
	f.Add("NX@1109MHz|gemm.t007x1x1.sk0.nchw.a0.p0|b1.ic1.s1x1-oc1.o1x1-k1.st1.g1|p0") // non-canonical digits
	f.Add("||||")
	f.Add("")
	f.Add("x|hmma-conv.t1x2x3x4.sk0.nchw.a0.p0|b1.ic1.s1x1-oc1-2.o1x1-k1.st1.g1|p0") // surplus separators
	f.Add("x|.....|b1.ic1.s1x1-oc1.o1x1-k1.st1.g1|p9")
	f.Fuzz(func(t *testing.T, key string) {
		dev, v, d, prec, err := ParseTimingKey(key)
		fdev, fv, fd, fprec, ferr := frozenParseTimingKey(key)
		if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
			t.Fatalf("key %q: error %v, frozen parser %v", key, err, ferr)
		}
		if dev != fdev || v != fv || d != fd || prec != fprec {
			t.Fatalf("key %q: parsed (%q %+v %+v %v), frozen parser (%q %+v %+v %v)", key, dev, v, d, prec, fdev, fv, fd, fprec)
		}
		if err != nil {
			return
		}
		canon := TimingKey(dev, v, d, prec)
		dev2, v2, d2, prec2, err := ParseTimingKey(canon)
		if err != nil {
			t.Fatalf("key %q renders to %q, which does not parse: %v", key, canon, err)
		}
		if dev2 != dev || v2 != v || d2 != d || prec2 != prec {
			t.Fatalf("key %q: fields changed across a round trip through %q", key, canon)
		}
		if again := TimingKey(dev2, v2, d2, prec2); again != canon {
			t.Fatalf("key %q: rendering is not a fixed point: %q then %q", key, canon, again)
		}
	})
}
