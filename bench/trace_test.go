package main

import (
	"math"
	"strings"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/tensor"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "queue", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "backend", Start: 40, End: 60},
		{ID: 3, Parent: 1, Name: "inner", Start: 12, End: 17},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 50, 1: 25, 2: 20, 3: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := sumCheck(spans); got != 0 {
		t.Errorf("sum check of a well-formed tree = %v, want 0", got)
	}
}

// Children that cover 102 of a 100-unit request are a 2 % gap: the self
// times no longer sum to the request, and the check must say so.
func TestSumCheckFailsOnTwoPercentGap(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "queue", Start: 0, End: 40},
		{ID: 2, Parent: 0, Name: "backend", Start: 38, End: 100}, // mis-linked: overlaps the queue
	}
	got := sumCheck(spans)
	if math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("sum check = %v, want 0.02", got)
	}
	if got <= 0.01 {
		t.Fatalf("a 2 %% gap passed the 1 %% limit")
	}
}

// A hand-built window: one batch of two requests on a two-replica
// quorum, every timestamp chosen, every derived number checked.
func TestDissectSyntheticBatch(t *testing.T) {
	tr := &tracer{}
	ev := func(t int64, k evKind, idx int32) {
		tr.events = append(tr.events, event{t: t, kind: k, idx: idx})
	}
	tr.members = []int32{4, 9}
	ev(1000, evBatchStart, 2)
	ev(1100, evTimedStart, 0)
	ev(1150, evLayerStart, int32(opConv))
	ev(1350, evLayerStart, int32(opOther))
	ev(1400, evLayerStart, int32(opFC))
	ev(1500, evNumericEnd, 0) // flushed late, stamped early
	ev(1520, evTimedStart, 0)
	ev(1560, evLayerStart, int32(opConv))
	ev(1800, evLayerStart, int32(opFC))
	ev(1900, evNumericEnd, 0)
	ev(2000, evBatchEnd, 0)

	reqs := []clientRec{
		{input: 4, due: 0, send: 0, recv: 2400, queueMs: 300e-6, simLatencyMs: 0.07, ok: true},
		{input: 9, due: 100, send: 200, recv: 2500, queueMs: 500e-6, simLatencyMs: 0.07, ok: true},
		{input: 4, due: 3000, send: 3000, recv: 3500, ok: true}, // its batch is not in the log
	}
	d := dissect(reqs, tr.batches())
	if d.requests != 3 || d.linked != 2 {
		t.Fatalf("linked %d of %d, want 2 of 3", d.linked, d.requests)
	}
	if d.requestNs != 2400+2400 {
		t.Errorf("request total = %d", d.requestNs)
	}
	want := map[string]int64{
		rowLate:       100,       // request 1 was sent 100 late
		rowQueue:      300 + 500, // as the server reported
		rowFront:      (2400 - 300 - 1000) + (2400 - 100 - 500 - 1000),
		rowServe:      2 * (1000 - 400 - 380), // backend minus both replicas, once per member
		rowCore:       0,                      // replica spans are tiled by construction
		rowTimedPass:  2 * (50 + 40),
		"layer conv":  2 * (200 + 240),
		"layer fc":    2 * (100 + 100),
		"layer other": 2 * 50,
	}
	for name, w := range want {
		if d.rowNs[name] != w {
			t.Errorf("row %q = %d ns, want %d", name, d.rowNs[name], w)
		}
	}
	if d.sumCheckFrac != 0 {
		t.Errorf("rows are %v away from the request span, want 0", d.sumCheckFrac)
	}
	if d.replicaRunsReq != 2 {
		t.Errorf("replica runs per request = %v, want 2", d.replicaRunsReq)
	}
	if got, want := d.quorumOverhead, 1-780.0/1000; math.Abs(got-want) > 1e-12 {
		t.Errorf("quorum overhead = %v, want %v", got, want)
	}
	if got, want := d.numericUsPerImg, (350.0+340)/1e3/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("numeric µs per image = %v, want %v", got, want)
	}
	if got := d.layerUsPerImg[opConv] + d.layerUsPerImg[opFC] + d.layerUsPerImg[opOther]; math.Abs(got-d.numericUsPerImg) > 1e-12 {
		t.Errorf("layer kinds sum to %v, numeric pass is %v", got, d.numericUsPerImg)
	}
	table := d.table("synthetic")
	for _, s := range []string{"host ms/req", "sim ms/req", "queue wait", "layer conv", "0.000%"} {
		if !strings.Contains(table, s) {
			t.Errorf("dissection table lacks %q:\n%s", s, table)
		}
	}
}

// A request whose children need more room than it has breaks the sum,
// and the check reports by how much instead of hiding it.
func TestSumCheckExposesOverfullRequest(t *testing.T) {
	batches := []batchRec{{start: 1000, end: 2000, members: []int32{1}}}
	reqs := []clientRec{{input: 1, due: 900, send: 900, recv: 2000, queueMs: 100e-6, ok: true}}
	d := dissect(reqs, batches)
	if d.linked != 1 || d.sumCheckFrac != 0 {
		t.Fatalf("a tight but consistent request: linked %d, gap %v", d.linked, d.sumCheckFrac)
	}
	// d.spans[0] is the batch's own root; the rest is the request's tree.
	tree := append([]span(nil), d.spans[1:]...)
	for i := range tree {
		if tree[i].Name == "queue" {
			tree[i].Start -= 50 // 50 ns more queueing than the request has room for
		}
	}
	if got, want := sumCheck(tree), 50.0/1100; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum check = %v, want %v", got, want)
	}
}

func TestProbeInjectsNothing(t *testing.T) {
	p := &probe{tr: &tracer{}, layers: map[string]opKind{"conv1": opConv}}
	if lf := p.Launch(0, "some_kernel"); lf != (core.LaunchFault{}) {
		t.Errorf("timed launch verdict = %+v, want zero", lf)
	}
	if lf := p.Launch(1, "conv1"); lf != (core.LaunchFault{}) {
		t.Errorf("numeric launch verdict = %+v, want zero", lf)
	}
	if n, err := p.MemcpyH2D(1 << 20); n != 0 || err != nil {
		t.Errorf("memcpy verdict = %d, %v", n, err)
	}
	w := tensor.NewVec(3)
	w.Data[1] = 7
	if got := p.CorruptWeights("conv1", "w", w); got != w || w.Data[1] != 7 {
		t.Errorf("weights were touched")
	}
	p.CorruptActivation("conv1", w)
	if w.Data[1] != 7 {
		t.Errorf("activation was touched")
	}
	kinds := []evKind{}
	for _, e := range p.tr.events {
		kinds = append(kinds, e.kind)
	}
	if len(kinds) != 2 || kinds[0] != evTimedStart || kinds[1] != evLayerStart {
		t.Errorf("events = %v, want a timed start then a layer start", kinds)
	}
}
