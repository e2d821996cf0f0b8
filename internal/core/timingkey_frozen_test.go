package core

import (
	"fmt"
	"strconv"
	"strings"

	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// frozenParseTimingKey is ParseTimingKey as it stood when it cut keys
// with strings.Split and rebuilt the device with strings.Join, frozen
// verbatim (helpers renamed). FuzzParseTimingKey holds the split-free
// parser to it: same values, same error text, on every input.
func frozenParseTimingKey(key string) (device string, v kernels.Variant, d kernels.ConvDims, prec tensor.Precision, err error) {
	fail := func(format string, args ...any) (string, kernels.Variant, kernels.ConvDims, tensor.Precision, error) {
		return "", kernels.Variant{}, kernels.ConvDims{}, 0, fmt.Errorf("core: timing key %q: "+format, append([]any{key}, args...)...)
	}
	parts := strings.Split(key, "|")
	if len(parts) < 4 {
		return fail("want 4 |-separated segments, got %d", len(parts))
	}
	// The device string is caller-supplied and could itself contain '|';
	// the three grammar segments are always the last three.
	device = strings.Join(parts[:len(parts)-3], "|")
	if device == "" {
		return fail("empty device segment")
	}
	vseg, dseg, pseg := parts[len(parts)-3], parts[len(parts)-2], parts[len(parts)-1]

	// Precision segment: "p%d".
	p64, perr := frozenParseTagInt(pseg, "p")
	if perr != nil || p64 > int(tensor.INT8) {
		return fail("bad precision segment %q", pseg)
	}
	prec = tensor.Precision(p64)

	// Variant segment: "family.tMxNxK.skS.layout.aA.pP".
	vf := strings.Split(vseg, ".")
	if len(vf) != 6 {
		return fail("variant segment %q: want 6 fields, got %d", vseg, len(vf))
	}
	fam, ok := kernels.ParseFamily(vf[0])
	if !ok {
		return fail("unknown kernel family %q", vf[0])
	}
	v.Family = fam
	if v.TileM, v.TileN, v.TileK, err = frozenParseTriple(vf[1], "t"); err != nil {
		return fail("variant tiles %q: %v", vf[1], err)
	}
	if v.SplitK, err = frozenParseTagInt(vf[2], "sk"); err != nil {
		return fail("variant split-k %q: %v", vf[2], err)
	}
	switch vf[3] {
	case "nchw":
	case "nhwc":
		v.NHWC = true
	default:
		return fail("unknown layout %q", vf[3])
	}
	act, aerr := frozenParseTagInt(vf[4], "a")
	if aerr != nil || act > 1 {
		return fail("bad activation flag %q", vf[4])
	}
	v.FusedAct = act == 1
	vp, vperr := frozenParseTagInt(vf[5], "p")
	if vperr != nil || vp > int(tensor.INT8) {
		return fail("bad variant precision %q", vf[5])
	}
	v.Precision = tensor.Precision(vp)

	// Dims segment: "bB.icC.sHxW-ocOC.oOHxOW-kK.stST.gG".
	df := strings.Split(dseg, ".")
	if len(df) != 6 {
		return fail("dims segment %q: want 6 fields, got %d", dseg, len(df))
	}
	if d.Batch, err = frozenParseTagInt(df[0], "b"); err != nil {
		return fail("dims batch %q: %v", df[0], err)
	}
	if d.InC, err = frozenParseTagInt(df[1], "ic"); err != nil {
		return fail("dims in-channels %q: %v", df[1], err)
	}
	if d.H, d.W, d.OutC, err = frozenParsePairTag(df[2], "s", "oc"); err != nil {
		return fail("dims spatial %q: %v", df[2], err)
	}
	if d.OutH, d.OutW, d.Kernel, err = frozenParsePairTag(df[3], "o", "k"); err != nil {
		return fail("dims output %q: %v", df[3], err)
	}
	if d.Stride, err = frozenParseTagInt(df[4], "st"); err != nil {
		return fail("dims stride %q: %v", df[4], err)
	}
	if d.Groups, err = frozenParseTagInt(df[5], "g"); err != nil {
		return fail("dims groups %q: %v", df[5], err)
	}
	return device, v, d, prec, nil
}

// frozenParseTagInt parses "<tag><int>" (e.g. "sk2"), rejecting signs, spaces
// and empty digit strings — strconv alone would accept "+2".
func frozenParseTagInt(s, tag string) (int, error) {
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

// frozenParseTriple parses "<tag>AxBxC".
func frozenParseTriple(s, tag string) (a, b, c int, err error) {
	if !strings.HasPrefix(s, tag) {
		return 0, 0, 0, fmt.Errorf("missing %q tag", tag)
	}
	f := strings.Split(s[len(tag):], "x")
	if len(f) != 3 {
		return 0, 0, 0, fmt.Errorf("want 3 x-separated values, got %d", len(f))
	}
	if a, err = frozenParseTagInt(f[0], ""); err != nil {
		return 0, 0, 0, err
	}
	if b, err = frozenParseTagInt(f[1], ""); err != nil {
		return 0, 0, 0, err
	}
	if c, err = frozenParseTagInt(f[2], ""); err != nil {
		return 0, 0, 0, err
	}
	return a, b, c, nil
}

// frozenParsePairTag parses "<tag1>AxB-<tag2>C" (e.g. "s56x56-oc64").
func frozenParsePairTag(s, tag1, tag2 string) (a, b, c int, err error) {
	halves := strings.Split(s, "-")
	if len(halves) != 2 {
		return 0, 0, 0, fmt.Errorf("want 2 '-'-separated halves, got %d", len(halves))
	}
	if !strings.HasPrefix(halves[0], tag1) {
		return 0, 0, 0, fmt.Errorf("missing %q tag", tag1)
	}
	f := strings.Split(halves[0][len(tag1):], "x")
	if len(f) != 2 {
		return 0, 0, 0, fmt.Errorf("want 2 x-separated values, got %d", len(f))
	}
	if a, err = frozenParseTagInt(f[0], ""); err != nil {
		return 0, 0, 0, err
	}
	if b, err = frozenParseTagInt(f[1], ""); err != nil {
		return 0, 0, 0, err
	}
	if c, err = frozenParseTagInt(halves[1], tag2); err != nil {
		return 0, 0, 0, err
	}
	return a, b, c, nil
}
