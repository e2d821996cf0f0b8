package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"

	"edgeinfer/internal/framed"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/planlint"
	"edgeinfer/internal/tensor"
)

// Engine plan files: a magic tag, a length-prefixed binary header
// describing the optimized graph and kernel plan, and a binary weight
// section. The analogue of a serialized TensorRT engine — and like one,
// a plan built on one platform can be deserialized and run on another
// (the paper's cNX_rAGX cases).
//
// The header is straight framed primitives. It opens with a string
// table: a name count, every distinct name concatenated into one byte
// run, then each name's length. Every string after it — model,
// platform, framework and task, layer names and inputs, outputs, the
// keys of Choices, Fusions and Int8Ranges, absorbed layers, launch
// symbols and layer lists, pass names — is a u32 index into the table.
// Integers are i64, float32 fields their IEEE-754 bits as a u32, float64
// fields framed F64, booleans a u32 of 0 or 1, and a list or map a u32
// count before its elements; maps are written in sorted key order, so
// equal engines serialize to equal bytes. Field order is planHeader's.

const planMagic = "EDGERT02"

// maxHeaderBytes bounds the header of an untrusted plan; the weight
// section's record and tensor bounds live with its codec in graph. Every
// count inside the header is bounded by the elements the header's bytes
// could hold (the *Bytes constants below), so nothing the decoder sizes
// from a count outgrows the header it has already read.
const maxHeaderBytes = 64 << 20

// maxPlanElems bounds the activation memory a loaded numeric plan may
// ask Infer for, in FP32 elements (64 MiB): every layer's output shape,
// and the total of the context slots compile plans. The largest numeric
// graph in the repository, a classifier proxy, peaks at 3 072 elements
// per activation and plans 6 144; the largest activation of full-scale
// VGG-16 (64×224×224, 3.2M) would still load.
const maxPlanElems = 1 << 24

// The fewest header bytes one element of each list takes on the wire
// (TestPlanElementBytes holds them to the writer).
const (
	nameBytes    = 4                                         // a table entry's length, or a name index
	variantBytes = 8 + 3*8 + 8 + 4 + 4 + 8                   // family, tiles, precision, fused act, NHWC, split-K
	layerBytes   = 4 + 8 + 4 + 5*8 + 3*8 + 8 + 4 + 8 + 4 + 4 // name, op, input count, conv, pool, units, alpha, LRN
	choiceBytes  = 4 + variantBytes
	fusionBytes  = 4 + 8 + 4 + 4 + 4 // key, act, alpha, folded BN, absorbed count
	rangeBytes   = 4 + 4
	launchBytes  = 4 + 4 + variantBytes + 4 + 6*8 // symbol, layer count, spec
	passBytes    = 4 + 4 + 12*8 + 2*8             // name, disabled, counters, costs
)

type planHeader struct {
	ModelName      string
	Platform       string
	BuildID        int
	Precision      tensor.Precision
	Numeric        bool
	RemovedLayers  int
	FusedLayers    int
	MergedLaunches int

	Framework  string
	Task       string
	InputShape [4]int
	Outputs    []string
	Layers     []graph.LayerRecord

	Choices    map[string]kernels.Variant
	Fusions    map[string]Fusion
	Int8Ranges map[string]float32
	Launches   []Launch
	Report     *BuildReport
}

// Save serializes the engine to a writer. Before emitting a single byte
// it runs the static plan-IR verifier (planlint): a plan that fails
// verification is refused, so no malformed engine ever reaches disk.
func (e *Engine) Save(w io.Writer) error {
	if issues := e.VerifyPlan(); planlint.HasErrors(issues) {
		return fmt.Errorf("core: refusing to serialize %s: plan fails IR verification: %s",
			e.Key(), firstErrors(issues, 3))
	}
	layers, weights := e.Graph.Records()
	hb, err := encodeHeader(&planHeader{
		ModelName: e.ModelName, Platform: e.Platform, BuildID: e.BuildID,
		Precision: e.Precision, Numeric: e.Numeric,
		RemovedLayers: e.RemovedLayers, FusedLayers: e.FusedLayers,
		MergedLaunches: e.MergedLaunches,
		Framework:      e.Graph.Framework, Task: e.Graph.Task,
		InputShape: e.Graph.InputShape, Outputs: e.Graph.Outputs, Layers: layers,
		Choices: e.Choices, Fusions: e.Fusions, Launches: e.Launches,
		Int8Ranges: e.Int8Ranges, Report: e.Report,
	})
	if err != nil {
		return fmt.Errorf("core: encode plan header: %w", err)
	}
	fw := framed.NewWriter(w)
	fw.Magic(planMagic)
	fw.Bytes(hb)
	if err := graph.WriteWeights(fw, weights); err != nil {
		return err
	}
	return fw.Flush()
}

// decodePlan reads a plan stream — magic, header, weight section —
// enforcing every length and shape bound, and assembles the header's
// graph through the error-returning record constructor; a malformed
// topology surfaces as an error, never a panic. Weights are returned
// unattached, for admit to attach one by one.
func decodePlan(r io.Reader) (*planHeader, *graph.Graph, []graph.WeightRecord, error) {
	fr := framed.NewReader(r)
	fr.Magic(planMagic)
	hb := fr.Bytes("plan header", maxHeaderBytes)
	if err := fr.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("read plan: %w", err)
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("plan header: %w", err)
	}
	g, err := graph.FromRecords(h.ModelName, h.InputShape, h.Layers)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("plan topology: %w", err)
	}
	g.Framework, g.Task, g.Outputs = h.Framework, h.Task, h.Outputs
	weights, err := graph.ReadWeights(fr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("read plan: %w", err)
	}
	return h, g, weights, nil
}

// encodeHeader renders a plan header: the string table, then the fields.
// The fields are written first, into their own buffer, because writing
// them is what fills the table.
func encodeHeader(h *planHeader) ([]byte, error) {
	var fields bytes.Buffer
	enc := headerEncoder{w: framed.NewWriter(&fields), index: make(map[string]uint32, len(h.Layers)+len(h.Launches))}
	enc.header(h)
	if err := enc.w.Flush(); err != nil {
		return nil, err
	}
	if enc.err != nil {
		return nil, enc.err
	}
	var out bytes.Buffer
	out.Grow(8 + len(enc.table) + 4*len(enc.lens) + fields.Len())
	w := framed.NewWriter(&out)
	w.U32(uint32(len(enc.lens)))
	w.Bytes(enc.table)
	for _, n := range enc.lens {
		w.U32(n)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.Write(fields.Bytes())
	return out.Bytes(), nil
}

// headerEncoder writes header fields, interning each name into the
// string table as it goes.
type headerEncoder struct {
	w     *framed.Writer
	index map[string]uint32 // name -> table index
	table []byte            // the names, concatenated in index order
	lens  []uint32          // each name's length
	err   error             // a value the format cannot carry
}

func (e *headerEncoder) name(s string) {
	i, ok := e.index[s]
	if !ok {
		i = uint32(len(e.lens))
		e.index[s] = i
		e.table = append(e.table, s...)
		e.lens = append(e.lens, uint32(len(s)))
	}
	e.w.U32(i)
}

func (e *headerEncoder) names(list []string) {
	e.w.U32(uint32(len(list)))
	for _, s := range list {
		e.name(s)
	}
}

func (e *headerEncoder) int(v int) { e.w.I64(int64(v)) }

func (e *headerEncoder) flag(b bool) {
	if b {
		e.w.U32(1)
	} else {
		e.w.U32(0)
	}
}

// f32 and f64 refuse what Load would: a NaN or an infinity.
func (e *headerEncoder) f32(v float32) {
	e.finite(float64(v))
	e.w.U32(math.Float32bits(v))
}

func (e *headerEncoder) f64(v float64) {
	e.finite(v)
	e.w.F64(v)
}

func (e *headerEncoder) finite(v float64) {
	if e.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		e.err = fmt.Errorf("non-finite value %v", v)
	}
}

func (e *headerEncoder) header(h *planHeader) {
	e.name(h.ModelName)
	e.name(h.Platform)
	e.int(h.BuildID)
	e.int(int(h.Precision))
	e.flag(h.Numeric)
	e.int(h.RemovedLayers)
	e.int(h.FusedLayers)
	e.int(h.MergedLaunches)
	e.name(h.Framework)
	e.name(h.Task)
	for _, d := range h.InputShape {
		e.int(d)
	}
	e.names(h.Outputs)
	e.w.U32(uint32(len(h.Layers)))
	for i := range h.Layers {
		e.layer(&h.Layers[i])
	}
	e.w.U32(uint32(len(h.Choices)))
	for _, k := range sortedKeys(h.Choices) {
		e.name(k)
		e.variant(h.Choices[k])
	}
	e.w.U32(uint32(len(h.Fusions)))
	for _, k := range sortedKeys(h.Fusions) {
		e.name(k)
		e.fusion(h.Fusions[k])
	}
	e.w.U32(uint32(len(h.Int8Ranges)))
	for _, k := range sortedKeys(h.Int8Ranges) {
		e.name(k)
		e.f32(h.Int8Ranges[k])
	}
	e.w.U32(uint32(len(h.Launches)))
	for i := range h.Launches {
		e.launch(&h.Launches[i])
	}
	e.flag(h.Report != nil)
	if h.Report != nil {
		e.report(h.Report)
	}
}

// sortedKeys returns a map's keys in order: maps are written sorted, so
// equal engines serialize to equal bytes.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (e *headerEncoder) layer(l *graph.LayerRecord) {
	e.name(l.Name)
	e.int(int(l.Op))
	e.names(l.Inputs)
	for _, v := range [...]int{l.Conv.OutC, l.Conv.Kernel, l.Conv.Stride, l.Conv.Pad, l.Conv.Groups,
		l.Pool.Kernel, l.Pool.Stride, l.Pool.Pad, l.OutUnits} {
		e.int(v)
	}
	e.f32(l.Alpha)
	e.int(l.LRNSize)
	e.f32(l.LRNBeta)
	e.f32(l.LRNK)
}

func (e *headerEncoder) variant(v kernels.Variant) {
	e.int(int(v.Family))
	e.int(v.TileM)
	e.int(v.TileN)
	e.int(v.TileK)
	e.int(int(v.Precision))
	e.flag(v.FusedAct)
	e.flag(v.NHWC)
	e.int(v.SplitK)
}

func (e *headerEncoder) fusion(f Fusion) {
	e.int(int(f.Act))
	e.f32(f.LeakyAlpha)
	e.flag(f.FoldedBN)
	e.names(f.Absorbed)
}

func (e *headerEncoder) launch(l *Launch) {
	e.name(l.Symbol)
	e.names(l.Layers)
	s := &l.Spec
	e.variant(s.V)
	e.name(s.Symbol)
	e.int(s.Blocks)
	for _, v := range [...]int64{s.FLOPs, s.MemBytes, s.WeightBytes, s.WorkingSet, s.Elems} {
		e.w.I64(v)
	}
}

func (e *headerEncoder) pass(p *PassStats) {
	e.name(p.Pass)
	e.flag(p.Disabled)
	for _, v := range [...]int{p.LayersRemoved, p.LayersFused, p.LayersCalibrated, p.TensorsQuantized,
		p.MergeGroups, p.MergedLaunches, p.TacticsConsidered, p.TacticsTimed, p.CacheHits, p.CacheMisses,
		p.PredictedPrunes, p.PredictorFallbacks} {
		e.int(v)
	}
	e.f64(p.TuneCostSec)
	e.f64(p.PrunedTuneCostSavedSec)
}

func (e *headerEncoder) report(r *BuildReport) {
	e.w.U32(uint32(len(r.Passes)))
	for i := range r.Passes {
		e.pass(&r.Passes[i])
	}
	for _, v := range [...]int{r.TacticsConsidered, r.TacticsTimed, r.CacheHits, r.CacheMisses,
		r.PredictedPrunes, r.PredictorFallbacks} {
		e.int(v)
	}
	e.f64(r.TuneCostSec)
	e.f64(r.PrunedTuneCostSavedSec)
	e.flag(r.WarmBuild)
	e.f64(r.ExpectedLatencySec)
}

// decodeHeader is encodeHeader's inverse over untrusted bytes: counts
// are bounded by the header's size, name indices by the table, enums by
// their Go types and floats to finite values. Names are substrings of
// one string holding the table; name lists are windows of shared
// blocks.
func decodeHeader(hb []byte) (*planHeader, error) {
	d := headerDecoder{r: framed.NewReader(bytes.NewReader(hb)), size: len(hb)}
	n := d.count("plan names", nameBytes)
	table := string(d.r.Bytes("plan name table", len(hb)))
	d.table = make([]string, 0, n)
	off := 0
	for len(d.table) < n && d.ok() {
		l := int(d.r.U32())
		if l > len(table)-off {
			d.fail("plan name %d of %d bytes overruns the table", len(d.table), l)
			break
		}
		d.table = append(d.table, table[off:off+l])
		off += l
	}
	if d.ok() && off != len(table) {
		d.fail("plan name table has %d bytes no name covers", len(table)-off)
	}
	h := new(planHeader)
	d.header(h)
	if d.err != nil {
		return nil, d.err
	}
	return h, d.r.Err()
}

// headerDecoder carries the framed reader's sticky error plus its own,
// for the semantic checks; it records its own only while the stream is
// still good, so the first failure of either kind is the one reported.
type headerDecoder struct {
	r     *framed.Reader
	size  int      // header bytes
	table []string // the string table
	block []string // the current block name lists are cut from
	err   error
}

func (d *headerDecoder) ok() bool { return d.err == nil && d.r.Err() == nil }

func (d *headerDecoder) fail(format string, args ...any) {
	if d.ok() {
		d.err = fmt.Errorf(format, args...)
	}
}

// count reads a list or map length, bounded by how many elements of
// elemBytes each the header could hold.
func (d *headerDecoder) count(what string, elemBytes int) int {
	return d.r.Count(what, d.size/elemBytes)
}

func (d *headerDecoder) name() string {
	i := d.r.U32()
	if int64(i) >= int64(len(d.table)) {
		d.fail("plan name index %d past a table of %d", i, len(d.table))
		return ""
	}
	return d.table[i]
}

// names reads a name list into a window of the current block, capped so
// an append by its owner cannot reach the next list's names.
func (d *headerDecoder) names(what string) []string {
	n := d.count(what, nameBytes)
	if n == 0 || !d.ok() {
		return nil
	}
	if cap(d.block)-len(d.block) < n {
		d.block = make([]string, 0, max(n, 256))
	}
	start := len(d.block)
	for i := 0; i < n; i++ {
		d.block = append(d.block, d.name())
	}
	return d.block[start:len(d.block):len(d.block)]
}

func (d *headerDecoder) int() int { return int(d.r.I64()) }

// enum reads an integer that must fit a uint8-backed enum type.
func (d *headerDecoder) enum(what string) uint8 {
	v := d.r.I64()
	if v < 0 || v > math.MaxUint8 {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return uint8(v)
}

func (d *headerDecoder) flag() bool {
	v := d.r.U32()
	if v > 1 {
		d.fail("flag %d is not 0 or 1", v)
	}
	return v == 1
}

func (d *headerDecoder) f32() float32 {
	v := math.Float32frombits(d.r.U32())
	d.finite(float64(v))
	return v
}

func (d *headerDecoder) f64() float64 {
	v := d.r.F64()
	d.finite(v)
	return v
}

func (d *headerDecoder) finite(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite value %v", v)
	}
}

func (d *headerDecoder) header(h *planHeader) {
	h.ModelName = d.name()
	h.Platform = d.name()
	h.BuildID = d.int()
	h.Precision = tensor.Precision(d.enum("precision"))
	h.Numeric = d.flag()
	h.RemovedLayers = d.int()
	h.FusedLayers = d.int()
	h.MergedLaunches = d.int()
	h.Framework = d.name()
	h.Task = d.name()
	for i := range h.InputShape {
		h.InputShape[i] = d.int()
	}
	h.Outputs = d.names("plan outputs")
	h.Layers = make([]graph.LayerRecord, d.count("plan layers", layerBytes))
	for i := 0; i < len(h.Layers) && d.ok(); i++ {
		d.layer(&h.Layers[i])
	}
	n := d.count("plan choices", choiceBytes)
	h.Choices = make(map[string]kernels.Variant, n)
	for ; n > 0 && d.ok(); n-- {
		k := d.name()
		h.Choices[k] = d.variant()
	}
	n = d.count("plan fusions", fusionBytes)
	h.Fusions = make(map[string]Fusion, n)
	for ; n > 0 && d.ok(); n-- {
		k := d.name()
		h.Fusions[k] = d.fusion()
	}
	if n = d.count("plan int8 ranges", rangeBytes); n > 0 {
		h.Int8Ranges = make(map[string]float32, n)
	}
	for ; n > 0 && d.ok(); n-- {
		k := d.name()
		h.Int8Ranges[k] = d.f32()
	}
	h.Launches = make([]Launch, d.count("plan launches", launchBytes))
	for i := 0; i < len(h.Launches) && d.ok(); i++ {
		d.launch(&h.Launches[i])
	}
	if d.flag() {
		h.Report = d.report()
	}
}

func (d *headerDecoder) layer(l *graph.LayerRecord) {
	l.Name = d.name()
	l.Op = graph.OpType(d.enum("layer op"))
	l.Inputs = d.names("layer inputs")
	for _, p := range [...]*int{&l.Conv.OutC, &l.Conv.Kernel, &l.Conv.Stride, &l.Conv.Pad, &l.Conv.Groups,
		&l.Pool.Kernel, &l.Pool.Stride, &l.Pool.Pad, &l.OutUnits} {
		*p = d.int()
	}
	l.Alpha = d.f32()
	l.LRNSize = d.int()
	l.LRNBeta = d.f32()
	l.LRNK = d.f32()
}

func (d *headerDecoder) variant() kernels.Variant {
	return kernels.Variant{
		Family: kernels.Family(d.enum("kernel family")),
		TileM:  d.int(), TileN: d.int(), TileK: d.int(),
		Precision: tensor.Precision(d.enum("kernel precision")),
		FusedAct:  d.flag(), NHWC: d.flag(),
		SplitK: d.int(),
	}
}

func (d *headerDecoder) fusion() Fusion {
	return Fusion{
		Act:        ActKind(d.enum("fused activation")),
		LeakyAlpha: d.f32(),
		FoldedBN:   d.flag(),
		Absorbed:   d.names("absorbed layers"),
	}
}

func (d *headerDecoder) launch(l *Launch) {
	l.Symbol = d.name()
	l.Layers = d.names("launch layers")
	s := &l.Spec
	s.V = d.variant()
	s.Symbol = d.name()
	s.Blocks = d.int()
	for _, p := range [...]*int64{&s.FLOPs, &s.MemBytes, &s.WeightBytes, &s.WorkingSet, &s.Elems} {
		*p = d.r.I64()
	}
}

func (d *headerDecoder) pass(p *PassStats) {
	p.Pass = d.name()
	p.Disabled = d.flag()
	for _, f := range [...]*int{&p.LayersRemoved, &p.LayersFused, &p.LayersCalibrated, &p.TensorsQuantized,
		&p.MergeGroups, &p.MergedLaunches, &p.TacticsConsidered, &p.TacticsTimed, &p.CacheHits, &p.CacheMisses,
		&p.PredictedPrunes, &p.PredictorFallbacks} {
		*f = d.int()
	}
	p.TuneCostSec = d.f64()
	p.PrunedTuneCostSavedSec = d.f64()
}

func (d *headerDecoder) report() *BuildReport {
	r := new(BuildReport)
	if n := d.count("build passes", passBytes); n > 0 {
		r.Passes = make([]PassStats, n)
	}
	for i := 0; i < len(r.Passes) && d.ok(); i++ {
		d.pass(&r.Passes[i])
	}
	for _, f := range [...]*int{&r.TacticsConsidered, &r.TacticsTimed, &r.CacheHits, &r.CacheMisses,
		&r.PredictedPrunes, &r.PredictorFallbacks} {
		*f = d.int()
	}
	r.TuneCostSec = d.f64()
	r.PrunedTuneCostSavedSec = d.f64()
	r.WarmBuild = d.flag()
	r.ExpectedLatencySec = d.f64()
	return r
}

// admit is the one gate a serialized plan passes to become an engine:
// decode, attach the weights, verify the plan IR (VerifyPlan, the check
// Save runs), then finalize, compile, charge the launches and bound the
// activations. Every failure is an issue, so a corrupt plan yields a
// verdict instead of an exception. The engine is nil exactly when an
// issue is error-severity: Load and VerifyPlanData are two views of
// this one verdict.
func admit(r io.Reader) (*Engine, []planlint.Issue) {
	h, g, weights, err := decodePlan(r)
	if err != nil {
		return nil, []planlint.Issue{{Check: "decode", Severity: planlint.Error, Message: err.Error()}}
	}
	var issues []planlint.Issue
	// Weights are attached before Finalize so BN shape checks see them.
	for _, w := range weights {
		if err := g.AttachWeight(w); err != nil {
			issues = append(issues, planlint.Issue{Check: "weights", Severity: planlint.Error,
				Layer: w.Layer, Message: err.Error()})
		}
	}
	e := &Engine{
		ModelName: h.ModelName, Platform: h.Platform, BuildID: h.BuildID,
		Precision: h.Precision, Numeric: h.Numeric, Graph: g,
		Choices: h.Choices, Fusions: h.Fusions, Launches: h.Launches,
		Int8Ranges:    h.Int8Ranges,
		RemovedLayers: h.RemovedLayers, FusedLayers: h.FusedLayers,
		MergedLaunches: h.MergedLaunches, Report: h.Report,
	}
	if issues = append(issues, e.VerifyPlan()...); planlint.HasErrors(issues) {
		return nil, issues
	}
	err = g.Finalize()
	if err == nil {
		e.plan, e.charge = compile(e), chargeLayers(e)
		err = e.boundActivations()
	}
	if err != nil {
		return nil, append(issues, planlint.Issue{Check: "shapes", Severity: planlint.Error, Message: err.Error()})
	}
	return e, issues
}

// Load deserializes an engine plan through admit. Plan files are
// untrusted input: truncated, bit-flipped or hostile plans — and plans
// the verifier rejects — return an error carrying the first
// error-severity issue; never a panic, and never an allocation driven by
// an unvalidated length field.
func Load(r io.Reader) (*Engine, error) {
	e, issues := admit(r)
	if e == nil {
		return nil, fmt.Errorf("core: plan rejected: %s", firstErrors(issues, 1))
	}
	return e, nil
}

// boundActivations rejects a numeric engine that would ask Infer for
// more than maxPlanElems of activation memory: in one layer's output, or
// in the context slots its schedule plans. compile only sums the sizes;
// nothing is allocated until a context is checked out.
func (e *Engine) boundActivations() error {
	if e.plan == nil {
		return nil
	}
	for _, l := range e.Graph.Layers {
		if _, ok := boundedElems(l.OutShape); !ok {
			return fmt.Errorf("plan layer %s: activation %v exceeds %d elements", l.Name, l.OutShape, maxPlanElems)
		}
	}
	total := 0 // each slot holds a bounded activation: no overflow
	for _, n := range e.plan.slotLen {
		total += n
	}
	if total > maxPlanElems {
		return fmt.Errorf("plan %s: activation slots total %d elements, over %d", e.Key(), total, maxPlanElems)
	}
	return nil
}

// boundedElems returns the element count of a shape whose every
// dimension is positive and whose count is at most maxPlanElems; ok is
// false otherwise. It never overflows, whatever the shape.
func boundedElems(s [4]int) (n int, ok bool) {
	n = 1
	for _, d := range s {
		if d < 1 || d > maxPlanElems {
			return 0, false
		}
		if n *= d; n > maxPlanElems {
			return 0, false
		}
	}
	return n, true
}

// SaveFile writes the engine plan to a file path, crash-safely.
func (e *Engine) SaveFile(path string) error { return framed.SaveFile(path, e.Save) }

// LoadFile reads an engine plan from a file path.
func LoadFile(path string) (*Engine, error) { return framed.LoadFile(path, Load) }
