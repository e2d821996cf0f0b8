package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"edgeinfer/internal/framed"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// TimingCache is the reproduction of TensorRT's ITimingCache: a
// serializable table of tactic-timing measurements keyed by
// (device, kernel variant, layer dimensions, precision) — and explicitly
// NOT by build id. A cold build populates it with the tuner's (noisy)
// observations; a warm build takes every measurement from the cache and
// never re-times, so warm rebuilds of the same (model, platform,
// precision) select identical tactics and serialize to identical plans —
// the paper's §VI-A "build once" guarantee as a mechanism instead of an
// operational rule. Safe for concurrent use.
type TimingCache struct {
	mu      sync.Mutex
	entries map[string]float64
}

// NewTimingCache returns an empty cache.
func NewTimingCache() *TimingCache {
	return &TimingCache{entries: map[string]float64{}}
}

// TimingKey renders the cache key of one tactic measurement. The device
// string must identify platform and clock (timings transfer across
// neither); the variant is encoded in full because rendered kernel
// symbols do not distinguish split-K siblings. Build id and tuner noise
// deliberately do not appear: entries must be shareable across builds.
//
// The grammar is
// "device|family.tMxNxK.skS.layout.aA.pP|bB.icC.sHxW-ocOC.oOHxOW-kK.stST.gG|pP".
// TimingKey allocates the returned string; the tuner, which renders a key
// for every tactic it considers, appends it into a stack buffer with
// appendTimingKey instead and converts only on a cache miss.
func TimingKey(device string, v kernels.Variant, d kernels.ConvDims, prec tensor.Precision) string {
	var buf [timingKeyBuf]byte
	return string(appendTimingKey(buf[:0], device, v, d, prec))
}

// timingKeyBuf fits the key of every zoo layer on every platform with
// room to spare; a longer key still renders, on the heap.
const timingKeyBuf = 160

// appendTimingKey appends the TimingKey rendering to b field by field.
func appendTimingKey(b []byte, device string, v kernels.Variant, d kernels.ConvDims, prec tensor.Precision) []byte {
	layout := "nchw"
	if v.NHWC {
		layout = "nhwc"
	}
	act := 0
	if v.FusedAct {
		act = 1
	}
	b = append(append(b, device...), '|')
	b = append(b, v.Family.String()...)
	b = appendTag(b, ".t", v.TileM)
	b = appendTag(b, "x", v.TileN)
	b = appendTag(b, "x", v.TileK)
	b = appendTag(b, ".sk", v.SplitK)
	b = append(append(b, '.'), layout...)
	b = appendTag(b, ".a", act)
	b = appendTag(b, ".p", int(v.Precision))
	b = appendTag(b, "|b", d.Batch)
	b = appendTag(b, ".ic", d.InC)
	b = appendTag(b, ".s", d.H)
	b = appendTag(b, "x", d.W)
	b = appendTag(b, "-oc", d.OutC)
	b = appendTag(b, ".o", d.OutH)
	b = appendTag(b, "x", d.OutW)
	b = appendTag(b, "-k", d.Kernel)
	b = appendTag(b, ".st", d.Stride)
	b = appendTag(b, ".g", d.Groups)
	return appendTag(b, "|p", int(prec))
}

// appendTag appends tag and then n in decimal.
func appendTag(b []byte, tag string, n int) []byte {
	return strconv.AppendInt(append(b, tag...), int64(n), 10)
}

// ParseTimingKey is the inverse of TimingKey: it recovers the device
// string, kernel variant, layer dimensions and engine precision from a
// cache key. The learned latency predictor trains on timing-cache
// entries, so the key format — previously write-only — must round-trip.
// Keys are untrusted (they arrive from cache files on disk): malformed
// input returns an error, never a panic.
func ParseTimingKey(key string) (device string, v kernels.Variant, d kernels.ConvDims, prec tensor.Precision, err error) {
	fail := func(format string, args ...any) (string, kernels.Variant, kernels.ConvDims, tensor.Precision, error) {
		return "", kernels.Variant{}, kernels.ConvDims{}, 0, fmt.Errorf("core: timing key %q: "+format, append([]any{key}, args...)...)
	}
	// The device string is caller-supplied and could itself contain '|';
	// the three grammar segments are always the last three.
	cut := len(key)
	var segs [3]string
	for i := len(segs) - 1; i >= 0; i-- {
		j := strings.LastIndexByte(key[:cut], '|')
		if j < 0 {
			return fail("want 4 |-separated segments, got %d", strings.Count(key, "|")+1)
		}
		segs[i], cut = key[j+1:cut], j
	}
	device = key[:cut]
	if device == "" {
		return fail("empty device segment")
	}
	vseg, dseg, pseg := segs[0], segs[1], segs[2]

	// Precision segment: "p%d".
	p64, perr := parseTagInt(pseg, "p")
	if perr != nil || p64 > int(tensor.INT8) {
		return fail("bad precision segment %q", pseg)
	}
	prec = tensor.Precision(p64)

	// Variant segment: "family.tMxNxK.skS.layout.aA.pP".
	var vf [6]string
	if n := splitInto(vf[:], vseg, '.'); n != len(vf) {
		return fail("variant segment %q: want 6 fields, got %d", vseg, n)
	}
	fam, ok := kernels.ParseFamily(vf[0])
	if !ok {
		return fail("unknown kernel family %q", vf[0])
	}
	v.Family = fam
	if v.TileM, v.TileN, v.TileK, err = parseTriple(vf[1], "t"); err != nil {
		return fail("variant tiles %q: %v", vf[1], err)
	}
	if v.SplitK, err = parseTagInt(vf[2], "sk"); err != nil {
		return fail("variant split-k %q: %v", vf[2], err)
	}
	switch vf[3] {
	case "nchw":
	case "nhwc":
		v.NHWC = true
	default:
		return fail("unknown layout %q", vf[3])
	}
	act, aerr := parseTagInt(vf[4], "a")
	if aerr != nil || act > 1 {
		return fail("bad activation flag %q", vf[4])
	}
	v.FusedAct = act == 1
	vp, vperr := parseTagInt(vf[5], "p")
	if vperr != nil || vp > int(tensor.INT8) {
		return fail("bad variant precision %q", vf[5])
	}
	v.Precision = tensor.Precision(vp)

	// Dims segment: "bB.icC.sHxW-ocOC.oOHxOW-kK.stST.gG".
	var df [6]string
	if n := splitInto(df[:], dseg, '.'); n != len(df) {
		return fail("dims segment %q: want 6 fields, got %d", dseg, n)
	}
	if d.Batch, err = parseTagInt(df[0], "b"); err != nil {
		return fail("dims batch %q: %v", df[0], err)
	}
	if d.InC, err = parseTagInt(df[1], "ic"); err != nil {
		return fail("dims in-channels %q: %v", df[1], err)
	}
	if d.H, d.W, d.OutC, err = parsePairTag(df[2], "s", "oc"); err != nil {
		return fail("dims spatial %q: %v", df[2], err)
	}
	if d.OutH, d.OutW, d.Kernel, err = parsePairTag(df[3], "o", "k"); err != nil {
		return fail("dims output %q: %v", df[3], err)
	}
	if d.Stride, err = parseTagInt(df[4], "st"); err != nil {
		return fail("dims stride %q: %v", df[4], err)
	}
	if d.Groups, err = parseTagInt(df[5], "g"); err != nil {
		return fail("dims groups %q: %v", df[5], err)
	}
	return device, v, d, prec, nil
}

// splitInto is strings.Split(s, string(sep)) into a caller's array: it
// returns the number of fields Split would return and stores the first
// len(dst) of them.
func splitInto(dst []string, s string, sep byte) int {
	n := 0
	for {
		i := strings.IndexByte(s, sep)
		if i < 0 {
			break
		}
		if n < len(dst) {
			dst[n] = s[:i]
		}
		n++
		s = s[i+1:]
	}
	if n < len(dst) {
		dst[n] = s
	}
	return n + 1
}

// parseTagInt parses "<tag><int>" (e.g. "sk2"), rejecting signs, spaces
// and empty digit strings — strconv alone would accept "+2".
func parseTagInt(s, tag string) (int, error) {
	if !strings.HasPrefix(s, tag) {
		return 0, fmt.Errorf("missing %q tag", tag)
	}
	digits := s[len(tag):]
	if digits == "" {
		return 0, fmt.Errorf("empty %q value", tag)
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, fmt.Errorf("non-digit in %q value", tag)
		}
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// parseTriple parses "<tag>AxBxC".
func parseTriple(s, tag string) (a, b, c int, err error) {
	if !strings.HasPrefix(s, tag) {
		return 0, 0, 0, fmt.Errorf("missing %q tag", tag)
	}
	var f [3]string
	if n := splitInto(f[:], s[len(tag):], 'x'); n != len(f) {
		return 0, 0, 0, fmt.Errorf("want 3 x-separated values, got %d", n)
	}
	if a, err = parseTagInt(f[0], ""); err != nil {
		return 0, 0, 0, err
	}
	if b, err = parseTagInt(f[1], ""); err != nil {
		return 0, 0, 0, err
	}
	if c, err = parseTagInt(f[2], ""); err != nil {
		return 0, 0, 0, err
	}
	return a, b, c, nil
}

// parsePairTag parses "<tag1>AxB-<tag2>C" (e.g. "s56x56-oc64").
func parsePairTag(s, tag1, tag2 string) (a, b, c int, err error) {
	var halves [2]string
	if n := splitInto(halves[:], s, '-'); n != len(halves) {
		return 0, 0, 0, fmt.Errorf("want 2 '-'-separated halves, got %d", n)
	}
	if !strings.HasPrefix(halves[0], tag1) {
		return 0, 0, 0, fmt.Errorf("missing %q tag", tag1)
	}
	var f [2]string
	if n := splitInto(f[:], halves[0][len(tag1):], 'x'); n != len(f) {
		return 0, 0, 0, fmt.Errorf("want 2 x-separated values, got %d", n)
	}
	if a, err = parseTagInt(f[0], ""); err != nil {
		return 0, 0, 0, err
	}
	if b, err = parseTagInt(f[1], ""); err != nil {
		return 0, 0, 0, err
	}
	if c, err = parseTagInt(halves[1], tag2); err != nil {
		return 0, 0, 0, err
	}
	return a, b, c, nil
}

// Lookup returns the cached observed time for a key.
func (c *TimingCache) Lookup(key string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	return v, ok
}

// lookupBytes is Lookup on a key held in a byte slice; indexing the map
// with string(key) does not copy it.
func (c *TimingCache) lookupBytes(key []byte) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[string(key)]
	return v, ok
}

// Insert records an observed time. First write wins: once a measurement
// is published every later build must see the same value, or shared-cache
// convergence would depend on build order.
func (c *TimingCache) Insert(key string, secs float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		c.entries[key] = secs
	}
}

// Len returns the number of cached measurements.
func (c *TimingCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Keys returns the cache keys in sorted order.
func (c *TimingCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Timing-cache files: magic, entry count, then per entry a length-
// prefixed key and the float64 observed seconds. Like engine plans they
// are untrusted input on load; see LoadTimingCache. Documented next to
// the plan format in DESIGN.md.
const timingCacheMagic = "EDGETC01"

// Deserialization bounds: a hostile count or key length must fail after
// a small allocation, not reserve the claimed size.
const (
	maxCacheEntries  = 1 << 20
	maxCacheKeyBytes = 4096
)

// Save serializes the cache. Entries are written in sorted key order so
// the same cache contents always produce the same bytes.
func (c *TimingCache) Save(w io.Writer) error {
	keys := c.Keys()
	c.mu.Lock()
	defer c.mu.Unlock()
	fw := framed.NewWriter(w)
	fw.Magic(timingCacheMagic)
	fw.U32(uint32(len(keys)))
	for _, k := range keys {
		if len(k) > maxCacheKeyBytes {
			return fmt.Errorf("core: timing-cache key %d bytes exceeds limit", len(k))
		}
		fw.String(k)
		fw.F64(c.entries[k])
	}
	return fw.Flush()
}

// LoadTimingCache deserializes a cache. Cache files are untrusted input:
// truncated, bit-flipped or hostile streams return an error — never a
// panic, and never an allocation driven by an unvalidated length field.
func LoadTimingCache(r io.Reader) (*TimingCache, error) {
	fr := framed.NewReader(r)
	fr.Magic(timingCacheMagic)
	c := NewTimingCache()
	for n := fr.Count("timing-cache entries", maxCacheEntries); n > 0; n-- {
		key := string(fr.Bytes("timing-cache key", maxCacheKeyBytes))
		secs := fr.F64()
		if fr.Err() != nil {
			break
		}
		if key == "" {
			return nil, fmt.Errorf("core: timing cache has an empty key")
		}
		if math.IsNaN(secs) || math.IsInf(secs, 0) || secs <= 0 {
			return nil, fmt.Errorf("core: timing-cache entry %q has invalid time %v", key, secs)
		}
		if _, dup := c.entries[key]; dup {
			return nil, fmt.Errorf("core: timing cache has duplicate key %q", key)
		}
		c.entries[key] = secs
	}
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("core: read timing cache: %w", err)
	}
	return c, nil
}

// SaveFile writes the cache to a file path, crash-safely.
func (c *TimingCache) SaveFile(path string) error { return framed.SaveFile(path, c.Save) }

// LoadTimingCacheFile reads a cache from a file path.
func LoadTimingCacheFile(path string) (*TimingCache, error) {
	return framed.LoadFile(path, LoadTimingCache)
}
