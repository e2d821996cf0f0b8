package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// TestCacheKeysIgnoreBuildIdentity is the trap-guard test: timing-cache
// keys are (device, variant, dims, precision) — Engine.Key() includes the
// build id and must never leak into them. Two builds with different build
// ids AND different tuner noise must hit exactly the entries a first build
// wrote; a build on the other platform must share none of them.
func TestCacheKeysIgnoreBuildIdentity(t *testing.T) {
	g, err := models.Build("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewTimingCache()

	cold := nxCfg(1)
	cold.TimingCache = cache
	ce, err := Build(g, cold)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Report.CacheMisses == 0 {
		t.Fatal("cold build missed nothing")
	}
	seeded := cache.Len()
	seededKeys := cache.Keys()
	for _, k := range seededKeys {
		if strings.Contains(k, "build") {
			t.Fatalf("cache key leaks build identity: %q", k)
		}
	}

	// Different build id, different noise: every measurement must come
	// from the cache, and the cache must not grow.
	warm := nxCfg(42)
	warm.TunerNoise = 0.25
	warm.TimingCache = cache
	we, err := Build(g, warm)
	if err != nil {
		t.Fatal(err)
	}
	if we.Report.CacheMisses != 0 {
		t.Fatalf("second NX build missed %d entries", we.Report.CacheMisses)
	}
	if we.Report.CacheHits != we.Report.TacticsConsidered || we.Report.CacheHits == 0 {
		t.Fatalf("hits %d != tactics considered %d", we.Report.CacheHits, we.Report.TacticsConsidered)
	}
	if we.Report.TacticsTimed != 0 {
		t.Fatalf("warm build timed %d tactics; cache hits must not count as timed", we.Report.TacticsTimed)
	}
	if we.Report.TuneCostSec != 0 {
		t.Fatalf("warm build charged %.6fs of tactic timing", we.Report.TuneCostSec)
	}
	if cache.Len() != seeded {
		t.Fatalf("warm build grew the cache: %d -> %d", seeded, cache.Len())
	}

	// Other platform: timings do not transfer. An AGX build against the
	// NX-seeded cache must behave exactly like one against a fresh cache
	// (hits on an AGX build come only from its own repeated layer shapes,
	// never from NX entries) and add only AGX-keyed entries.
	agx1 := agxCfg(1)
	agx1.TimingCache = cache
	ae1, err := Build(g, agx1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewTimingCache()
	agx2 := agxCfg(1)
	agx2.TimingCache = fresh
	ae2, err := Build(g, agx2)
	if err != nil {
		t.Fatal(err)
	}
	if ae1.Report.CacheMisses == 0 || ae1.Report.CacheMisses != ae2.Report.CacheMisses ||
		ae1.Report.CacheHits != ae2.Report.CacheHits {
		t.Fatalf("NX entries changed the AGX build: seeded %+v vs fresh %+v",
			ae1.Report, ae2.Report)
	}
	if !reflect.DeepEqual(ae1.Choices, ae2.Choices) {
		t.Fatal("AGX tactic choices depend on NX cache contents")
	}
	if cache.Len() != seeded+fresh.Len() {
		t.Fatalf("shared cache has %d entries, want %d NX + %d AGX",
			cache.Len(), seeded, fresh.Len())
	}
	was := map[string]bool{}
	for _, k := range seededKeys {
		was[k] = true
	}
	for _, k := range cache.Keys() {
		if !was[k] && !strings.HasPrefix(k, "AGX@") {
			t.Fatalf("AGX build added non-AGX key %q", k)
		}
	}
}

func TestTimingKeyDistinguishesSplitK(t *testing.T) {
	// SplitK siblings render the same kernel symbol; the cache key must
	// still tell them apart or a split-K timing poisons its sibling.
	v := kernels.Variant{Family: kernels.FamHMMAConv, TileM: 64, TileN: 64, TileK: 32, Precision: tensor.FP16}
	sk := v
	sk.SplitK = 4
	d := kernels.ConvDims{Batch: 1, InC: 64, H: 56, W: 56, OutC: 64, OutH: 56, OutW: 56, Kernel: 3, Stride: 1, Groups: 1}
	k1 := TimingKey("NX@1109MHz", v, d, tensor.FP16)
	k2 := TimingKey("NX@1109MHz", sk, d, tensor.FP16)
	if k1 == k2 {
		t.Fatalf("split-K variants collide: %q", k1)
	}
	if TimingKey("AGX@1377MHz", v, d, tensor.FP16) == k1 {
		t.Fatal("device does not separate keys")
	}
	if TimingKey("NX@1109MHz", v, d, tensor.INT8) == k1 {
		t.Fatal("build precision does not separate keys")
	}
}

// TestZooTimingKeysMatchFormatted holds the appended TimingKey to the
// fmt rendering it replaced: every key cold zoo builds write — both
// platforms, all three precisions — must equal that rendering byte for
// byte (cache files are keyed by it) and round-trip through
// ParseTimingKey.
func TestZooTimingKeysMatchFormatted(t *testing.T) {
	formatted := func(device string, v kernels.Variant, d kernels.ConvDims, prec tensor.Precision) string {
		layout := "nchw"
		if v.NHWC {
			layout = "nhwc"
		}
		act := 0
		if v.FusedAct {
			act = 1
		}
		return fmt.Sprintf("%s|%s.t%dx%dx%d.sk%d.%s.a%d.p%d|b%d.ic%d.s%dx%d-oc%d.o%dx%d-k%d.st%d.g%d|p%d",
			device,
			v.Family, v.TileM, v.TileN, v.TileK, v.SplitK, layout, act, v.Precision,
			d.Batch, d.InC, d.H, d.W, d.OutC, d.OutH, d.OutW, d.Kernel, d.Stride, d.Groups,
			prec)
	}
	cache := NewTimingCache()
	for _, name := range models.List() {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []BuildConfig{nxCfg(1), agxCfg(2)} {
			for _, prec := range []tensor.Precision{tensor.FP32, tensor.FP16, tensor.INT8} {
				cfg.Precision, cfg.TimingCache = prec, cache
				if _, err := Build(g, cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
	if cache.Len() < 1000 {
		t.Fatalf("cold zoo builds wrote only %d keys", cache.Len())
	}
	for _, key := range cache.Keys() {
		dev, v, d, prec, err := ParseTimingKey(key)
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		if f := formatted(dev, v, d, prec); f != key {
			t.Fatalf("key %q, fmt renders its fields as %q", key, f)
		}
		if again := TimingKey(dev, v, d, prec); again != key {
			t.Fatalf("key %q re-renders as %q", key, again)
		}
	}
}

func TestTimingCacheFirstWriteWins(t *testing.T) {
	c := NewTimingCache()
	c.Insert("k", 1.5)
	c.Insert("k", 9.9)
	if v, ok := c.Lookup("k"); !ok || v != 1.5 {
		t.Fatalf("lookup = %v,%v; want 1.5,true", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestTimingCacheRoundTrip(t *testing.T) {
	c := NewTimingCache()
	c.Insert("zeta", 3.25e-5)
	c.Insert("alpha", 1.5e-4)
	c.Insert("mid", 7e-6)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTimingCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("round trip lost entries: %d", got.Len())
	}
	for _, k := range []string{"zeta", "alpha", "mid"} {
		want, _ := c.Lookup(k)
		if v, ok := got.Lookup(k); !ok || v != want {
			t.Fatalf("entry %q = %v,%v; want %v", k, v, ok, want)
		}
	}
	// Deterministic bytes: re-serializing produces the identical stream.
	var buf2 bytes.Buffer
	if err := got.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("cache serialization is not canonical")
	}
}

// TestLoadTimingCacheHostileInput: like the plan loader, the cache
// deserializer must return errors — never panic — on malformed input.
func TestLoadTimingCacheHostileInput(t *testing.T) {
	valid := func() []byte {
		c := NewTimingCache()
		c.Insert("key-a", 1e-4)
		c.Insert("key-b", 2e-4)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	u32 := func(v uint32) []byte {
		b := make([]byte, 4)
		binary.LittleEndian.PutUint32(b, v)
		return b
	}
	u64 := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	entry := func(key string, bits uint64) []byte {
		var b []byte
		b = append(b, u32(uint32(len(key)))...)
		b = append(b, key...)
		b = append(b, u64(bits)...)
		return b
	}
	hdr := func(count uint32) []byte {
		return append([]byte(timingCacheMagic), u32(count)...)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOTCACHE\x00\x00\x00\x00")},
		{"plan magic", []byte("EDGERT02\x00\x00\x00\x00")},
		{"truncated magic", []byte("EDGETC")},
		{"no count", []byte(timingCacheMagic)},
		{"huge count", hdr(1 << 30)},
		{"count without entries", hdr(5)},
		{"zero key length", append(hdr(1), entry("", 0x3ff0000000000000)...)},
		{"huge key length", append(hdr(1), u32(1<<31)...)},
		{"key longer than stream", append(hdr(1), u32(4000)...)},
		{"missing value", append(hdr(1), append(u32(3), []byte("abc")...)...)},
		{"nan time", append(hdr(1), entry("k", math.Float64bits(math.NaN()))...)},
		{"inf time", append(hdr(1), entry("k", math.Float64bits(math.Inf(1)))...)},
		{"zero time", append(hdr(1), entry("k", math.Float64bits(0))...)},
		{"negative time", append(hdr(1), entry("k", math.Float64bits(-1e-4))...)},
		{"duplicate key", append(hdr(2), append(entry("k", math.Float64bits(1e-4)), entry("k", math.Float64bits(2e-4))...)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadTimingCache(bytes.NewReader(tc.data)); err == nil {
				t.Fatalf("hostile input %q accepted", tc.name)
			}
		})
	}

	// Every truncation prefix of a valid stream errors too.
	for n := 0; n < len(valid); n++ {
		if _, err := LoadTimingCache(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(valid))
		}
	}
	if _, err := LoadTimingCache(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
}

func TestTimingCacheFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/tc.bin"
	c := NewTimingCache()
	c.Insert("k", 5e-5)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTimingCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Lookup("k"); !ok || v != 5e-5 {
		t.Fatalf("file round trip lost entry: %v,%v", v, ok)
	}
	if _, err := LoadTimingCacheFile(t.TempDir() + "/absent.bin"); err == nil {
		t.Fatal("missing file accepted")
	}
}
