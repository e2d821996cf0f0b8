package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// Plan files are untrusted input (they cross machines, like serialized
// TensorRT engines). These tests corrupt a real plan at every section
// boundary — magic, header length, header JSON, weight count, record
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

// mutateHeader rebuilds the plan with the header JSON edited in place.
func mutateHeader(tb testing.TB, plan []byte, hlen int, edit func(h map[string]any)) []byte {
	tb.Helper()
	var h map[string]any
	if err := json.Unmarshal(plan[12:12+hlen], &h); err != nil {
		tb.Fatal(err)
	}
	edit(h)
	hb, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, 0, len(plan))
	out = append(out, plan[:8]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hb)))
	out = append(out, hb...)
	out = append(out, plan[12+hlen:]...)
	return out
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
		{"header", 12, true}, // JSON with a flipped first byte
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

func TestLoadHostileLengthFields(t *testing.T) {
	plan, hlen := savedPlan(t)
	patch := func(off int, v uint32) []byte {
		bad := append([]byte(nil), plan...)
		binary.LittleEndian.PutUint32(bad[off:], v)
		return bad
	}
	cases := []struct {
		name string
		data []byte
	}{
		// Claims a header far past the limit: must be rejected up front.
		{"hlen-over-limit", patch(8, 1<<30)},
		// Claims a huge header within the limit over a truncated stream:
		// must fail from missing bytes, not allocate 64MB first.
		{"hlen-truncated", patch(8, maxHeaderBytes)},
		// Billions of weight records over an exhausted stream.
		{"wcount-hostile", patch(12+hlen, 0xffffffff)},
		// First record claims a length past the record limit.
		{"rlen-over-limit", patch(12+hlen+4, 0xffffffff)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := loadNoPanic(t, tc.data); err == nil {
				t.Fatalf("%s accepted", tc.name)
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
// activationBombs, and plans that decode and finalize cleanly but that
// the plan verifier rejects: an INT8 plan missing a calibrated range
// (it would quantize against zero and answer wrongly without an error)
// and launches the cost table could not charge.
func hostileHeaders(tb testing.TB, plan []byte, hlen int) map[string][]byte {
	first := func(h map[string]any) map[string]any {
		return h["Layers"].([]any)[0].(map[string]any)
	}
	lastLaunch := func(h map[string]any) map[string]any {
		ls := h["Launches"].([]any)
		return ls[len(ls)-1].(map[string]any)
	}
	bombs := activationBombs(tb, plan, hlen)
	int8Plan, int8Len := savedInt8Plan(tb)
	return map[string][]byte{
		"int8-missing-range": mutateHeader(tb, int8Plan, int8Len, func(h map[string]any) {
			delete(h["Int8Ranges"].(map[string]any), "feat")
		}),
		"launch-missing-layer": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			lastLaunch(h)["Layers"] = []any{"no-such-layer"}
		}),
		"launch-no-layers": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			lastLaunch(h)["Layers"] = []any{}
		}),
		"conv-giant-pad":        bombs["conv-giant-pad"],
		"fc-giant-units":        bombs["fc-giant-units"],
		"upsample-chain":        bombs["upsample-chain"],
		"slot-total":            bombs["slot-total"],
		"weight-for-data-layer": appendWeight(tb, plan, hlen, graph.WeightRecord{Layer: "data", Key: "w"}),
		"duplicate-layer": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			ls := h["Layers"].([]any)
			ls[1].(map[string]any)["Name"] = first(h)["Name"]
		}),
		"layer-named-data": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			first(h)["Name"] = "data"
		}),
		"unknown-input-ref": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			first(h)["Inputs"] = []any{"no-such-layer"}
		}),
		// A back edge: the first layer consumes the second, which
		// consumes it.
		"cycle": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			first(h)["Inputs"] = []any{h["Layers"].([]any)[1].(map[string]any)["Name"]}
		}),
		"no-inputs": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			first(h)["Inputs"] = []any{}
		}),
		"redeclared-input-op": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			first(h)["Op"] = float64(0) // graph.OpInput
		}),
		"conv-zero-stride": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			first(h)["Conv"].(map[string]any)["Stride"] = float64(0)
		}),
		"zero-input-shape": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			h["InputShape"] = []any{float64(0), float64(3), float64(32), float64(32)}
		}),
		"giant-input-shape": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			h["InputShape"] = []any{float64(1 << 20), float64(1 << 20), float64(1 << 20), float64(1)}
		}),
	}
}

// activationBombs are well-formed numeric plans whose activations are
// the hostile part: shapes Finalize accepts, which compile would size
// context slots from, so that Infer asked for any amount of memory (or
// panicked in makeslice on an overflowed size). Load rejects each.
func activationBombs(tb testing.TB, plan []byte, hlen int) map[string][]byte {
	firstOf := func(h map[string]any, op graph.OpType) map[string]any {
		for _, l := range h["Layers"].([]any) {
			if l := l.(map[string]any); l["Op"] == float64(op) {
				return l
			}
		}
		tb.Fatalf("the plan has no %s", op)
		return nil
	}
	// chain appends n upsamples of from, named prefix0.., returning the last.
	chain := func(h map[string]any, from, prefix string, n int) string {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s%d", prefix, i)
			h["Layers"] = append(h["Layers"].([]any), map[string]any{
				"Name": name, "Op": float64(graph.OpUpsample), "Inputs": []any{from},
			})
			from = name
		}
		return from
	}
	return map[string][]byte{
		"conv-giant-pad": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			firstOf(h, graph.OpConv)["Conv"].(map[string]any)["Pad"] = float64(1e9)
		}),
		"fc-giant-units": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			firstOf(h, graph.OpFC)["OutUnits"] = float64(1 << 40)
		}),
		// 64 doublings overflow every dimension on the way.
		"upsample-chain": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			chain(h, "data", "up", 64)
		}),
		// Two branches of 3×2048×2048 (12.6M elements each, in bounds)
		// live at once: their slots add up past the bound.
		"slot-total": mutateHeader(tb, plan, hlen, func(h map[string]any) {
			a, b := chain(h, "data", "upa", 6), chain(h, "data", "upb", 6)
			h["Layers"] = append(h["Layers"].([]any), map[string]any{
				"Name": "join", "Op": float64(graph.OpAdd), "Inputs": []any{a, b},
			})
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
