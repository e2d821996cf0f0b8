package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/netserve"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// Tracing from the outside. The benchmark may not edit the stack, so it
// observes each layer boundary through the seams the stack already
// exports: a decorator on netserve.Backend brackets the serving layer,
// and a pass-through core.FaultInjector — consulted once per kernel
// launch of the timed pass and once per layer of the numeric pass —
// marks where the engine is. A model's batches are served by one batcher
// goroutine, replicas of a quorum run one after another on it, so the
// event log needs no lock; it is read only after the server has drained.

type evKind uint8

const (
	evBatchStart evKind = iota
	evBatchEnd
	evTimedStart // first kernel launch of a timed pass
	evLayerStart // a numeric layer begins; idx is its opKind
	evNumericEnd // last activation of the numeric pass was produced
)

type opKind uint8

const (
	opConv opKind = iota
	opFC
	opOther
	numOpKinds
)

var opKindNames = [numOpKinds]string{"conv", "fc", "other"}

type event struct {
	t    int64 // ns since tracer start
	kind evKind
	idx  int32
}

type tracer struct {
	t0      time.Time
	events  []event
	members []int32 // corpus index of every batch member, batch after batch
	sigs    map[uint64]int32
	lastAct int64 // pending evNumericEnd, flushed when the next span opens
}

func newTracer(corpus []*tensor.Tensor) *tracer {
	tr := &tracer{
		t0:      time.Now(),
		events:  make([]event, 0, 1<<20),
		members: make([]int32, 0, 1<<16),
		sigs:    make(map[uint64]int32, len(corpus)),
	}
	for i, t := range corpus {
		tr.sigs[signature(t)] = int32(i)
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) flushAct() {
	if tr.lastAct != 0 {
		tr.events = append(tr.events, event{t: tr.lastAct, kind: evNumericEnd})
		tr.lastAct = 0
	}
}

// tracedBackend brackets Backend.ServeBatch. The request context goes
// straight through: the budget it carries is the stack's business.
type tracedBackend struct {
	inner netserve.Backend
	tr    *tracer
}

func (b *tracedBackend) ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*netserve.BatchAnswer, error) {
	tr := b.tr
	for _, x := range xs {
		id, ok := tr.sigs[signature(x)]
		if !ok {
			id = -1
		}
		tr.members = append(tr.members, id)
	}
	tr.events = append(tr.events, event{t: tr.now(), kind: evBatchStart, idx: int32(len(xs))})
	ans, err := b.inner.ServeBatch(ctx, xs, runIndex)
	end := tr.now()
	tr.flushAct()
	tr.events = append(tr.events, event{t: end, kind: evBatchEnd})
	return ans, err
}

func (b *tracedBackend) Ready() (bool, string) { return b.inner.Ready() }
func (b *tracedBackend) InputShape() [4]int    { return b.inner.InputShape() }

// probe is the pass-through injector of one engine. It never injects:
// every verdict is the zero value, weights and activations are returned
// untouched, so the traced run computes exactly what the untraced run
// does.
type probe struct {
	tr     *tracer
	layers map[string]opKind // numeric-pass layer names of this engine
}

func newProbe(tr *tracer, e *core.Engine) (*probe, error) {
	p := &probe{tr: tr, layers: map[string]opKind{}}
	for _, l := range e.Graph.Layers {
		k := opOther
		switch l.Op {
		case graph.OpConv:
			k = opConv
		case graph.OpFC:
			k = opFC
		}
		p.layers[l.Name] = k
	}
	// The two passes are told apart by what Launch is handed: a kernel
	// symbol (timed) or a layer name (numeric).
	for _, l := range e.Launches {
		if _, clash := p.layers[l.Symbol]; clash {
			return nil, fmt.Errorf("trace: engine %s has a kernel symbol %q that is also a layer name", e.Key(), l.Symbol)
		}
	}
	return p, nil
}

func (p *probe) MemcpyH2D(int64) (int, error) { return 0, nil }

func (p *probe) Launch(index int, symbol string) core.LaunchFault {
	tr := p.tr
	if k, numeric := p.layers[symbol]; numeric {
		tr.events = append(tr.events, event{t: tr.now(), kind: evLayerStart, idx: int32(k)})
	} else if index == 0 {
		t := tr.now()
		tr.flushAct()
		tr.events = append(tr.events, event{t: t, kind: evTimedStart})
	}
	return core.LaunchFault{}
}

func (p *probe) CorruptWeights(_, _ string, w *tensor.Tensor) *tensor.Tensor { return w }

func (p *probe) CorruptActivation(string, *tensor.Tensor) {
	p.tr.lastAct = p.tr.now()
}

// A span is one interval at a layer boundary: name, start, end and the
// span that caused it. Request-level spans carry their request's index;
// a request's "backend" span names the batch that served it, and that
// batch's own spans (backend → replica → timed_pass, layer.*) are stored
// once and shared by every member.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req"`   // request index, -1 on a batch's spans
	Batch  int    `json:"batch"` // batch index, -1 when the span is not tied to one
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus its direct children's.
// Children are disjoint by construction; a child that sticks out of its
// parent (a mis-linked batch) drives the parent's self time to the zero
// floor, which the sum check then exposes.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// sumCheck is |Σ self − Σ root| ÷ Σ root over a forest of span trees: 0
// when the self times account for the roots exactly.
func sumCheck(spans []span) float64 {
	var selfSum, rootSum int64
	for _, v := range selfTimes(spans) {
		selfSum += v
	}
	for _, s := range spans {
		if s.Parent < 0 {
			rootSum += s.dur()
		}
	}
	if rootSum == 0 {
		return 0
	}
	return math.Abs(float64(selfSum-rootSum)) / float64(rootSum)
}

// replicaRun is one engine's share of a batch, as the probe saw it.
type replicaRun struct {
	timedStart, numericStart int64
	numericEnd               int64
	layerStart               []int64
	layerKind                []opKind
}

type batchRec struct {
	start, end int64
	members    []int32 // corpus indices
	runs       []replicaRun
}

// batches parses the event log.
func (tr *tracer) batches() []batchRec {
	var out []batchRec
	var cur *batchRec
	nextMember := 0
	for _, ev := range tr.events {
		switch ev.kind {
		case evBatchStart:
			out = append(out, batchRec{start: ev.t, members: tr.members[nextMember : nextMember+int(ev.idx)]})
			nextMember += int(ev.idx)
			cur = &out[len(out)-1]
		case evBatchEnd:
			if cur != nil {
				cur.end = ev.t
				cur = nil
			}
		case evTimedStart:
			if cur != nil {
				cur.runs = append(cur.runs, replicaRun{timedStart: ev.t})
			}
		case evLayerStart:
			if cur != nil && len(cur.runs) > 0 {
				r := &cur.runs[len(cur.runs)-1]
				if r.numericStart == 0 {
					r.numericStart = ev.t
				}
				r.layerStart = append(r.layerStart, ev.t)
				r.layerKind = append(r.layerKind, opKind(ev.idx))
			}
		case evNumericEnd:
			if cur != nil && len(cur.runs) > 0 {
				cur.runs[len(cur.runs)-1].numericEnd = ev.t
			}
		}
	}
	return out
}

// clientRec is one request as the load generator saw it.
type clientRec struct {
	input        int
	due, send    int64 // ns since tracer start; due == send in a closed loop
	recv         int64
	queueMs      float64
	simLatencyMs float64
	ok           bool
}

// Stage names of the dissection, in request order.
const (
	rowLate      = "generator late"
	rowFront     = "front door self"
	rowQueue     = "queue wait"
	rowServe     = "serve self"
	rowCore      = "core self"
	rowTimedPass = "timed pass"
)

var rowOfSpan = map[string]string{
	"request": rowFront, "late": rowLate, "queue": rowQueue,
	"backend": rowServe, "replica": rowCore, "timed_pass": rowTimedPass,
	"layer.conv": "layer conv", "layer.fc": "layer fc", "layer.other": "layer other",
}

var rowOrder = []string{rowLate, rowFront, rowQueue, rowServe, rowCore, rowTimedPass, "layer conv", "layer fc", "layer other"}

// dissection is the traced run reduced to the numbers the report needs.
type dissection struct {
	requests, linked int
	rowNs            map[string]int64 // Σ over linked requests
	requestNs        int64            // Σ request spans
	simMs            float64          // Σ reply latency_sec
	sumCheckFrac     float64
	spans            []span

	frontSelfMs     []float64 // per request, sorted
	backendMs       []float64 // per batch, sorted
	serveSelfUs     float64   // per batch
	quorumOverhead  float64   // 1 − Σ replica spans ÷ Σ backend spans
	replicaRunsReq  float64   // engines each image ran on
	timedUsPerBatch float64
	numericUsPerImg float64 // per image per engine
	layerUsPerImg   [numOpKinds]float64
}

// linkBatches finds, for each request, the batch that served it: the one
// that carried the request's input while the request was in flight.
func linkBatches(reqs []clientRec, batches []batchRec) []int {
	byInput := map[int][]int{}
	for i, r := range reqs {
		byInput[r.input] = append(byInput[r.input], i)
	}
	batchOf := make([]int, len(reqs))
	for i := range batchOf {
		batchOf[i] = -1
	}
	for bi, b := range batches {
		if b.end == 0 {
			continue
		}
		for _, m := range b.members {
			for _, ri := range byInput[int(m)] {
				if r := reqs[ri]; batchOf[ri] < 0 && r.ok && r.send <= b.start && r.recv >= b.end {
					batchOf[ri] = bi
					break
				}
			}
		}
	}
	return batchOf
}

// dissect builds the span trees of a traced window and reduces them. A
// batch's tree is backend → replica → {timed_pass, layer.*}; a request's
// is request → {late, queue, backend}, whose backend leaf stands for the
// shared batch tree.
func dissect(reqs []clientRec, batches []batchRec) *dissection {
	d := &dissection{requests: len(reqs), rowNs: map[string]int64{}}
	batchOf := linkBatches(reqs, batches)
	members := make([]int64, len(batches))
	for _, bi := range batchOf {
		if bi >= 0 {
			members[bi]++
		}
	}

	add := func(parent int, name string, start, end int64, req, batch int) int {
		d.spans = append(d.spans, span{ID: len(d.spans), Parent: parent, Name: name, Start: start, End: end, Req: req, Batch: batch})
		return len(d.spans) - 1
	}
	var imageRuns, images, nBatches int64
	var replicaNs, backendNs, timedNs, numericNs int64
	var layerNs [numOpKinds]int64
	for bi, b := range batches {
		if members[bi] == 0 {
			continue
		}
		nBatches++
		root := add(-1, "backend", b.start, b.end, -1, bi)
		backendNs += b.end - b.start
		d.backendMs = append(d.backendMs, float64(b.end-b.start)/1e6)
		images += int64(len(b.members))
		for _, r := range b.runs {
			if r.numericStart == 0 || r.numericEnd < r.numericStart {
				continue // an aborted run has no numeric pass to attribute
			}
			imageRuns += int64(len(b.members))
			rs := add(root, "replica", r.timedStart, r.numericEnd, -1, bi)
			add(rs, "timed_pass", r.timedStart, r.numericStart, -1, bi)
			replicaNs += r.numericEnd - r.timedStart
			timedNs += r.numericStart - r.timedStart
			numericNs += r.numericEnd - r.numericStart
			for li, ls := range r.layerStart {
				le := r.numericEnd
				if li+1 < len(r.layerStart) {
					le = r.layerStart[li+1]
				}
				add(rs, "layer."+opKindNames[r.layerKind[li]], ls, le, -1, bi)
				layerNs[r.layerKind[li]] += le - ls
			}
		}
	}
	for ri, r := range reqs {
		bi := batchOf[ri]
		if bi < 0 {
			continue
		}
		d.linked++
		b := batches[bi]
		queue := int64(math.Round(r.queueMs * 1e6))
		if queue > b.start-r.send {
			queue = b.start - r.send // the server stamped arrival after we sent
		}
		root := add(-1, "request", r.due, r.recv, ri, -1)
		if r.send > r.due {
			add(root, "late", r.due, r.send, ri, -1)
		}
		add(root, "queue", b.start-queue, b.start, ri, -1)
		add(root, "backend", b.start, b.end, ri, bi)
		d.requestNs += r.recv - r.due
		d.simMs += r.simLatencyMs
	}

	// Rows: a request-level span contributes its self time once; a
	// batch-level span once per member, in place of the member's
	// backend leaf.
	self := selfTimes(d.spans)
	var rowSum int64
	for _, s := range d.spans {
		switch {
		case s.Req >= 0 && s.Name == "backend":
			continue
		case s.Req >= 0:
			d.rowNs[rowOfSpan[s.Name]] += self[s.ID]
			rowSum += self[s.ID]
			if s.Name == "request" {
				d.frontSelfMs = append(d.frontSelfMs, float64(self[s.ID])/1e6)
			}
		default:
			d.rowNs[rowOfSpan[s.Name]] += self[s.ID] * members[s.Batch]
			rowSum += self[s.ID] * members[s.Batch]
		}
	}
	if d.requestNs > 0 {
		d.sumCheckFrac = math.Abs(float64(rowSum-d.requestNs)) / float64(d.requestNs)
	}
	if nBatches > 0 {
		d.serveSelfUs = float64(backendNs-replicaNs) / 1e3 / float64(nBatches)
		d.timedUsPerBatch = float64(timedNs) / 1e3 / float64(nBatches)
	}
	if backendNs > 0 {
		d.quorumOverhead = 1 - float64(replicaNs)/float64(backendNs)
	}
	if images > 0 {
		d.replicaRunsReq = float64(imageRuns) / float64(images)
	}
	if imageRuns > 0 {
		d.numericUsPerImg = float64(numericNs) / 1e3 / float64(imageRuns)
		for k := range layerNs {
			d.layerUsPerImg[k] = float64(layerNs[k]) / 1e3 / float64(imageRuns)
		}
	}
	sort.Float64s(d.frontSelfMs)
	sort.Float64s(d.backendMs)
	return d
}

// table renders the Table-X-style dissection: host wall time and its
// share in one column pair, simulated device time in a column of its own.
func (d *dissection) table(workload string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dissection of %s: %d requests traced, %d linked to their batch\n", workload, d.requests, d.linked)
	fmt.Fprintf(&b, "  %-16s %12s %8s %12s\n", "stage", "host ms/req", "share", "sim ms/req")
	n := math.Max(float64(d.linked), 1)
	total := math.Max(float64(d.requestNs), 1)
	for _, name := range rowOrder {
		sim := "-"
		if name == rowTimedPass {
			// The timed pass is what prices the batch on the simulated device.
			sim = fmt.Sprintf("%.4f", d.simMs/n)
		}
		fmt.Fprintf(&b, "  %-16s %12.4f %7.1f%% %12s\n", name, float64(d.rowNs[name])/1e6/n, 100*float64(d.rowNs[name])/total, sim)
	}
	fmt.Fprintf(&b, "  %-16s %12.4f %7.1f%% %12.4f   rows sum to the request span within %.3f%%\n",
		"request", float64(d.requestNs)/1e6/n, 100.0, d.simMs/n, 100*d.sumCheckFrac)
	return b.String()
}

// writeSpans dumps the spans as JSON once the run has ended.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
