package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"edgeinfer/internal/framed"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// Plan files are untrusted input (they cross machines, like serialized
// TensorRT engines). These tests corrupt a real plan at every section
// boundary — magic, header length, header, weight count, record
// length, record JSON, weight data — and assert Load always returns a
// clean error or a usable engine, never a panic and never an allocation
// driven by a hostile length field.

// savedPlan builds a small numeric engine and returns its serialized
// plan plus the parsed header length (the header spans [12, 12+hlen)).
func savedPlan(tb testing.TB) (plan []byte, hlen int) {
	tb.Helper()
	return savedPlanWith(tb, DefaultConfig(gpusim.XavierNX(), 1))
}

// savedInt8Plan is savedPlan's engine built at INT8, calibrated on two
// images: the plan whose quantization ranges the verifier checks.
func savedInt8Plan(tb testing.TB) (plan []byte, hlen int) {
	tb.Helper()
	return savedPlanWith(tb, int8Config(1, PercentileCalibrator{Images: calibImages(2), Pct: 100}))
}

func savedPlanWith(tb testing.TB, cfg BuildConfig) (plan []byte, hlen int) {
	tb.Helper()
	g, err := models.BuildProxy("resnet18", models.DefaultProxyOptions())
	if err != nil {
		tb.Fatal(err)
	}
	e, err := Build(g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	plan = buf.Bytes()
	return plan, int(binary.LittleEndian.Uint32(plan[8:12]))
}

// headerOf decodes a saved plan's header.
func headerOf(tb testing.TB, plan []byte, hlen int) *planHeader {
	tb.Helper()
	h, err := decodeHeader(plan[12 : 12+hlen])
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// withHeader returns the plan with its header bytes replaced by hb.
func withHeader(plan []byte, hlen int, hb []byte) []byte {
	out := make([]byte, 0, len(plan))
	out = append(out, plan[:8]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hb)))
	out = append(out, hb...)
	return append(out, plan[12+hlen:]...)
}

// mutateHeader rebuilds the plan with its decoded header edited and
// re-encoded by the plan writer.
func mutateHeader(tb testing.TB, plan []byte, hlen int, edit func(h *planHeader)) []byte {
	tb.Helper()
	h := headerOf(tb, plan, hlen)
	edit(h)
	hb, err := encodeHeader(h)
	if err != nil {
		tb.Fatal(err)
	}
	return withHeader(plan, hlen, hb)
}

// loadNoPanic runs Load and converts any panic into a test failure.
func loadNoPanic(t *testing.T, data []byte) (*Engine, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked: %v", r)
		}
	}()
	return Load(bytes.NewReader(data))
}

func TestLoadTruncatedAtEveryBoundary(t *testing.T) {
	plan, hlen := savedPlan(t)
	// Section boundaries: magic, hlen, header, wcount, first rlen, then
	// representative interior cuts of each section.
	cuts := []int{
		0, 3, 8, 10, // inside magic, inside hlen
		12, 12 + hlen/2, 12 + hlen, // header start, middle, end (= wcount start)
		12 + hlen + 2, 12 + hlen + 4, // inside wcount, first rlen
		12 + hlen + 6, // inside first record length/JSON
		len(plan) - 1, // inside the last weight's data
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(plan) {
			t.Fatalf("cut %d outside plan of %d bytes", cut, len(plan))
		}
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			if _, err := loadNoPanic(t, plan[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		})
	}
}

func TestLoadBitFlippedAtEveryBoundary(t *testing.T) {
	plan, hlen := savedPlan(t)
	// One flipped bit at the start of every section. Structural sections
	// must error; a flip inside raw weight data yields a loadable (if
	// numerically wrong) plan — either way, never a panic, and a returned
	// engine must actually serve inference without panicking.
	offsets := []struct {
		name      string
		off       int
		mustError bool
	}{
		{"magic", 0, true},
		{"hlen", 8, false},   // may grow or shrink the claimed header
		{"header", 12, true}, // the string table's count: the names no longer tile the table
		{"wcount", 12 + hlen, false},
		{"rlen", 12 + hlen + 4, false},
		{"record", 12 + hlen + 8, false},
		{"weight-data", len(plan) - 4, false},
	}
	for _, tc := range offsets {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), plan...)
			bad[tc.off] ^= 0x10
			e, err := loadNoPanic(t, bad)
			if tc.mustError && err == nil {
				t.Fatalf("flip in %s accepted", tc.name)
			}
			if err == nil {
				if e == nil {
					t.Fatal("nil engine without error")
				}
				if e.Numeric {
					x := tensor.New(1, e.Graph.InputShape[1], e.Graph.InputShape[2], e.Graph.InputShape[3])
					if _, ierr := e.Infer(x); ierr != nil {
						t.Logf("corrupted engine infers with error (acceptable): %v", ierr)
					}
				}
			}
		})
	}
}

// hostileLengths are the plan's section length fields rewritten: each
// must be refused, and none may drive an allocation of what it claims.
func hostileLengths(plan []byte, hlen int) map[string][]byte {
	patch := func(off int, v uint32) []byte {
		bad := append([]byte(nil), plan...)
		binary.LittleEndian.PutUint32(bad[off:], v)
		return bad
	}
	return map[string][]byte{
		// Claims a header far past the limit: must be rejected up front.
		"hlen-over-limit": patch(8, 1<<30),
		// Claims a huge header within the limit over a truncated stream:
		// must fail from missing bytes, not allocate 64MB first.
		"hlen-truncated": patch(8, maxHeaderBytes),
		// Billions of weight records over an exhausted stream.
		"wcount-hostile": patch(12+hlen, 0xffffffff),
		// First record claims a length past the record limit.
		"rlen-over-limit": patch(12+hlen+4, 0xffffffff),
	}
}

func TestLoadHostileLengthFields(t *testing.T) {
	plan, hlen := savedPlan(t)
	for name, data := range hostileLengths(plan, hlen) {
		t.Run(name, func(t *testing.T) {
			if _, err := loadNoPanic(t, data); err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
}

// appendWeight returns the plan with one more weight record — of a
// single element — at the end of its weight section.
func appendWeight(tb testing.TB, plan []byte, hlen int, rec graph.WeightRecord) []byte {
	tb.Helper()
	rec.Shape = [4]int{1, 1, 1, 1}
	rb, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), plan...)
	wcount := binary.LittleEndian.Uint32(out[12+hlen:])
	binary.LittleEndian.PutUint32(out[12+hlen:], wcount+1)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rb)))
	out = append(out, rb...)
	return binary.LittleEndian.AppendUint32(out, 0) // one float32
}

// hostileHeaders are malformed topologies that graph.Add/Finalize would
// panic on if the loader passed them through unvalidated, the one
// hostile weight record with the same contract (a well-formed plan whose
// extra record names the input layer, which holds no weight map), the
// activationBombs, the headerLayout cases, and plans that decode and
// finalize cleanly but that the plan verifier rejects: an INT8 plan
// missing a calibrated range (it would quantize against zero and answer
// wrongly without an error) and launches the cost table could not
// charge.
func hostileHeaders(tb testing.TB, plan []byte, hlen int) map[string][]byte {
	bombs := activationBombs(tb, plan, hlen)
	int8Plan, int8Len := savedInt8Plan(tb)
	lastLaunch := func(h *planHeader) *Launch { return &h.Launches[len(h.Launches)-1] }
	hostile := map[string][]byte{
		"int8-missing-range": mutateHeader(tb, int8Plan, int8Len, func(h *planHeader) {
			delete(h.Int8Ranges, "feat")
		}),
		"launch-missing-layer": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			lastLaunch(h).Layers = []string{"no-such-layer"}
		}),
		"launch-no-layers": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			lastLaunch(h).Layers = nil
		}),
		"conv-giant-pad":        bombs["conv-giant-pad"],
		"fc-giant-units":        bombs["fc-giant-units"],
		"upsample-chain":        bombs["upsample-chain"],
		"slot-total":            bombs["slot-total"],
		"weight-for-data-layer": appendWeight(tb, plan, hlen, graph.WeightRecord{Layer: "data", Key: "w"}),
		"duplicate-layer": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.Layers[1].Name = h.Layers[0].Name
		}),
		"layer-named-data": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.Layers[0].Name = "data"
		}),
		"unknown-input-ref": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.Layers[0].Inputs = []string{"no-such-layer"}
		}),
		// A back edge: the first layer consumes the second, which
		// consumes it.
		"cycle": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.Layers[0].Inputs = []string{h.Layers[1].Name}
		}),
		"no-inputs": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.Layers[0].Inputs = nil
		}),
		"redeclared-input-op": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.Layers[0].Op = graph.OpInput
		}),
		"conv-zero-stride": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.Layers[0].Conv.Stride = 0
		}),
		"zero-input-shape": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.InputShape = [4]int{0, 3, 32, 32}
		}),
		"giant-input-shape": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			h.InputShape = [4]int{1 << 20, 1 << 20, 1 << 20, 1}
		}),
	}
	for name, tc := range headerLayout(tb, plan, hlen) {
		hostile[name] = tc.data
	}
	return hostile
}

// layoutCase is a plan and the decode error Load must report for it.
type layoutCase struct {
	data []byte
	want string
}

// headerLayout are headers the plan writer cannot produce: the string
// table and the counts and indices that point into it, rewritten in
// place.
func headerLayout(tb testing.TB, plan []byte, hlen int) map[string]layoutCase {
	tb.Helper()
	hb := plan[12 : 12+hlen]
	names := binary.LittleEndian.Uint32(hb)
	fields := 8 + int(binary.LittleEndian.Uint32(hb[4:])) + 4*int(names) // the first field: ModelName
	patched := func(hb []byte, off int, v uint32) []byte {
		hb = append([]byte(nil), hb...)
		binary.LittleEndian.PutUint32(hb[off:], v)
		return hb
	}
	// With no layers and nothing after them, a header ends in the layer,
	// choice, fusion, range and launch counts and the report flag.
	h := headerOf(tb, plan, hlen)
	h.Layers, h.Choices, h.Fusions, h.Int8Ranges, h.Launches, h.Report = nil, nil, nil, nil, nil, nil
	bare, err := encodeHeader(h)
	if err != nil {
		tb.Fatal(err)
	}
	layers, launches := len(bare)-24, len(bare)-8
	cut := bare[:launches+4]
	return map[string]layoutCase{
		"names-over-limit": {withHeader(plan, hlen, patched(hb, 0, 0xffffffff)),
			fmt.Sprintf("plan names 4294967295 exceeds limit %d", hlen/nameBytes)},
		"name-index-past-table": {withHeader(plan, hlen, patched(hb, fields, names)),
			fmt.Sprintf("plan name index %d past a table of %d", names, names)},
		"layer-count-over-limit": {withHeader(plan, hlen, patched(bare, layers, 0xffffffff)),
			fmt.Sprintf("plan layers 4294967295 exceeds limit %d", len(bare)/layerBytes)},
		// As many launches as the header's size allows, over a header
		// that ends at their count.
		"launch-count-truncated": {withHeader(plan, hlen, patched(cut, launches, uint32(len(cut)/launchBytes))),
			"plan header: truncated"},
	}
}

// activationBombs are well-formed numeric plans whose activations are
// the hostile part: shapes Finalize accepts, which compile would size
// context slots from, so that Infer asked for any amount of memory (or
// panicked in makeslice on an overflowed size). Load rejects each.
func activationBombs(tb testing.TB, plan []byte, hlen int) map[string][]byte {
	firstOf := func(h *planHeader, op graph.OpType) *graph.LayerRecord {
		for i := range h.Layers {
			if h.Layers[i].Op == op {
				return &h.Layers[i]
			}
		}
		tb.Fatalf("the plan has no %s", op)
		return nil
	}
	// chain appends n upsamples of from, named prefix0.., returning the last.
	chain := func(h *planHeader, from, prefix string, n int) string {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s%d", prefix, i)
			h.Layers = append(h.Layers, graph.LayerRecord{Name: name, Op: graph.OpUpsample, Inputs: []string{from}})
			from = name
		}
		return from
	}
	return map[string][]byte{
		"conv-giant-pad": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			firstOf(h, graph.OpConv).Conv.Pad = 1e9
		}),
		"fc-giant-units": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			firstOf(h, graph.OpFC).OutUnits = 1 << 40
		}),
		// 64 doublings overflow every dimension on the way.
		"upsample-chain": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			chain(h, "data", "up", 64)
		}),
		// Two branches of 3×2048×2048 (12.6M elements each, in bounds)
		// live at once: their slots add up past the bound.
		"slot-total": mutateHeader(tb, plan, hlen, func(h *planHeader) {
			a, b := chain(h, "data", "upa", 6), chain(h, "data", "upb", 6)
			h.Layers = append(h.Layers, graph.LayerRecord{Name: "join", Op: graph.OpAdd, Inputs: []string{a, b}})
		}),
	}
}

// TestLoadBoundsActivations: each activation bomb is refused for its
// activations, not for some other fault of the plan.
func TestLoadBoundsActivations(t *testing.T) {
	plan, hlen := savedPlan(t)
	for name, data := range activationBombs(t, plan, hlen) {
		_, err := loadNoPanic(t, data)
		if err == nil || !strings.Contains(err.Error(), "elements") {
			t.Errorf("%s: %v, want an activation bound error", name, err)
		}
	}
}

// TestLoadHostileHeaders: Load refuses each hostile header, and its
// error carries the first error the verifier reports on the same bytes.
func TestLoadHostileHeaders(t *testing.T) {
	plan, hlen := savedPlan(t)
	for name, data := range hostileHeaders(t, plan, hlen) {
		t.Run(name, func(t *testing.T) {
			_, err := loadNoPanic(t, data)
			if err == nil {
				t.Fatalf("hostile header %s accepted", name)
			}
			want := firstErrors(VerifyPlanData(bytes.NewReader(data)), 1)
			if want == "" || !strings.Contains(err.Error(), want) {
				t.Fatalf("Load error %q does not carry the verifier's %q", err, want)
			}
		})
	}
}

// TestLoadHostileHeaderLayout: each header the writer cannot produce is
// refused for its layout fault, before any graph is assembled.
func TestLoadHostileHeaderLayout(t *testing.T) {
	plan, hlen := savedPlan(t)
	for name, tc := range headerLayout(t, plan, hlen) {
		_, err := loadNoPanic(t, tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestLoadRunsThePlanVerifier: the hostile plans only the verifier can
// see are refused by Load for the verifier's reason.
func TestLoadRunsThePlanVerifier(t *testing.T) {
	plan, hlen := savedPlan(t)
	hostile := hostileHeaders(t, plan, hlen)
	for name, want := range map[string]string{
		"int8-missing-range":   `quantization: layer "fc_head": INT8 engine has no calibrated range for input producer "feat"`,
		"launch-missing-layer": `launches: layer "no-such-layer": launch 6 references a layer missing from the graph`,
		"launch-no-layers":     "launches: launch 6 names no layer",
	} {
		_, err := loadNoPanic(t, hostile[name])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Load error %v, want one containing %q", name, err, want)
		}
	}
}

// A weight record with a huge in-limit shape over a truncated stream
// must fail from the missing bytes without reserving the claimed size.
func TestLoadHostileWeightShape(t *testing.T) {
	plan, hlen := savedPlan(t)
	wcountOff := 12 + hlen
	rlenOff := wcountOff + 4
	rlen := int(binary.LittleEndian.Uint32(plan[rlenOff : rlenOff+4]))
	var rec graph.WeightRecord
	if err := json.Unmarshal(plan[rlenOff+4:rlenOff+4+rlen], &rec); err != nil {
		t.Fatal(err)
	}

	build := func(shape [4]int) []byte {
		rec := rec
		rec.Shape = shape
		rb, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]byte(nil), plan[:wcountOff]...)
		out = binary.LittleEndian.AppendUint32(out, 1)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rb)))
		out = append(out, rb...)
		// No weight data follows: the stream ends here.
		return out
	}

	if _, err := loadNoPanic(t, build([4]int{1 << 14, 1 << 14, 1, 1})); err == nil {
		t.Fatal("giant truncated weight accepted")
	}
	if _, err := loadNoPanic(t, build([4]int{1 << 10, 1 << 10, 1 << 10, 1})); err == nil {
		t.Fatal("over-limit weight shape accepted")
	}
	if _, err := loadNoPanic(t, build([4]int{0, 1, 1, 1})); err == nil {
		t.Fatal("zero weight dim accepted")
	}
	if _, err := loadNoPanic(t, build([4]int{-1, 1, 1, 1})); err == nil {
		t.Fatal("negative weight dim accepted")
	}
}

// Round trip stays intact: a pristine save still loads and infers.
func TestSaveLoadRoundTripNumeric(t *testing.T) {
	plan, _ := savedPlan(t)
	e, err := loadNoPanic(t, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Numeric {
		t.Fatal("round-tripped proxy engine lost Numeric")
	}
	x := tensor.New(1, e.Graph.InputShape[1], e.Graph.InputShape[2], e.Graph.InputShape[3])
	if _, err := e.Infer(x); err != nil {
		t.Fatal(err)
	}
}

// TestPlanElementBytes holds the decoder's per-element byte floors to
// what the writer emits for an element whose name lists are empty: a
// floor above it would refuse real plans, one below it would let a
// hostile count size more than the header could hold.
func TestPlanElementBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(e *headerEncoder)
		want  int
	}{
		{"name", func(e *headerEncoder) { e.name("") }, nameBytes},
		{"layer", func(e *headerEncoder) { e.layer(&graph.LayerRecord{}) }, layerBytes},
		{"choice", func(e *headerEncoder) { e.name(""); e.variant(kernels.Variant{}) }, choiceBytes},
		{"fusion", func(e *headerEncoder) { e.name(""); e.fusion(Fusion{}) }, fusionBytes},
		{"range", func(e *headerEncoder) { e.name(""); e.f32(0) }, rangeBytes},
		{"launch", func(e *headerEncoder) { e.launch(&Launch{}) }, launchBytes},
		{"pass", func(e *headerEncoder) { e.pass(&PassStats{}) }, passBytes},
	} {
		var buf bytes.Buffer
		e := headerEncoder{w: framed.NewWriter(&buf), index: map[string]uint32{}}
		tc.write(&e)
		if err := e.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != tc.want {
			t.Errorf("%s: the writer emits %d bytes, the decoder's floor is %d", tc.name, buf.Len(), tc.want)
		}
	}
}
