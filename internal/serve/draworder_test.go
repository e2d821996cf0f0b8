package serve_test

import (
	"fmt"
	"strings"
	"testing"

	"edgeinfer/internal/core"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

// recordingFaults injects nothing and writes every consultation — method,
// index, symbol or layer — to a shared transcript, tagged with the
// replica that drew it.
type recordingFaults struct {
	tag string
	log *[]string
}

func (f recordingFaults) MemcpyH2D(bytes int64) (int, error) {
	*f.log = append(*f.log, fmt.Sprintf("%s memcpy %d", f.tag, bytes))
	return 0, nil
}

func (f recordingFaults) Launch(index int, symbol string) core.LaunchFault {
	*f.log = append(*f.log, fmt.Sprintf("%s launch %d %s", f.tag, index, symbol))
	return core.LaunchFault{}
}

func (f recordingFaults) CorruptWeights(layer, key string, w *tensor.Tensor) *tensor.Tensor {
	*f.log = append(*f.log, fmt.Sprintf("%s weights %s %s", f.tag, layer, key))
	return w
}

func (f recordingFaults) CorruptActivation(layer string, y *tensor.Tensor) {
	*f.log = append(*f.log, fmt.Sprintf("%s act %s", f.tag, layer))
}

// wantDraws is the injector protocol of one single-image request on one
// engine: the timed pass consults Launch once per kernel launch, then
// the numeric pass consults, per non-input layer in plan order, Launch →
// CorruptWeights (conv and FC only) → CorruptActivation.
func wantDraws(tag string, e *core.Engine) []string {
	var want []string
	for i, l := range e.Launches {
		want = append(want, fmt.Sprintf("%s launch %d %s", tag, i, l.Symbol))
	}
	for li, l := range e.Graph.Layers {
		if l.Op == graph.OpInput {
			continue
		}
		want = append(want, fmt.Sprintf("%s launch %d %s", tag, li, l.Name))
		if l.Op == graph.OpConv || l.Op == graph.OpFC {
			want = append(want, fmt.Sprintf("%s weights %s w", tag, l.Name))
		}
		want = append(want, fmt.Sprintf("%s act %s", tag, l.Name))
	}
	return want
}

// parentDraws is the transcript of one numeric Executor request on the
// resnet18 proxy, captured at the commit that still had the per-request
// interpreter and serving chain (through the since-deleted Executor.Do):
// the batch-of-one path must reproduce it draw for draw, and wantDraws
// must agree with it before it is trusted on the replica engines.
var parentDraws = strings.Split(`ex launch 0 cuDepthwise::depthwiseConvHMMAPrefetchKernel
ex launch 1 cuDepthwise::depthwiseConvHMMAPrefetchKernel
ex launch 2 poolingForward_NCHW_kernel
ex launch 3 cuDepthwise::depthwiseConvHMMAPrefetchKernel
ex launch 4 poolingForward_NCHW_kernel
ex launch 5 trt_volta_h884gemm_64x64_ldg8_tn_v1
ex launch 6 softmaxForward_kernel
ex launch 1 smooth1
ex weights smooth1 w
ex act smooth1
ex launch 2 smooth2
ex weights smooth2 w
ex act smooth2
ex launch 3 pool2
ex act pool2
ex launch 4 smooth3
ex weights smooth3 w
ex act smooth3
ex launch 5 pool3
ex act pool3
ex launch 6 feat
ex act feat
ex launch 7 fc_head
ex weights fc_head w
ex act fc_head
ex launch 8 prob
ex act prob`, "\n")

func diffDraws(t *testing.T, label string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: draw %d is %q, want %q (%d draws, want %d)", label, i, g, w, len(got), len(want))
		}
	}
}

// TestInjectorDrawOrder pins the fault-stream draw order every seeded
// campaign depends on: one numeric request through Executor.DoBatchCtx,
// round-robin Pool.DoBatchCtx and quorum Pool.DoBatchCtx consults the
// injector in exactly the protocol order, and so does a second request
// on the same image.
func TestInjectorDrawOrder(t *testing.T) {
	eng, _, _, inputs := fixture(t)
	x := inputs[:1]

	var log []string
	ex := newExec(t, recordingFaults{"ex", &log}, nil)
	if _, err := ex.DoBatchCtx(nil, x, 0); err != nil {
		t.Fatal(err)
	}
	first := log
	log = nil
	if _, err := ex.DoBatchCtx(nil, x, 0); err != nil {
		t.Fatal(err)
	}
	diffDraws(t, "executor request 1", first, parentDraws)
	diffDraws(t, "executor request 2", log, parentDraws)
	diffDraws(t, "wantDraws", wantDraws("ex", eng), parentDraws)

	for _, quorum := range []bool{false, true} {
		log = nil
		p := newPool(t, func(c *serve.PoolConfig) {
			c.Quorum = quorum
			c.ReplicaInjector = func(slot int, e *core.Engine) core.FaultInjector {
				return recordingFaults{fmt.Sprintf("r%d", slot), &log}
			}
		})
		br, err := p.DoBatchCtx(nil, x, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := log
		log = nil
		if _, err := p.DoBatchCtx(nil, x, 0); err != nil {
			t.Fatal(err)
		}
		second := log

		// Round-robin rotates: request 1 rides replica 0, request 2
		// replica 1. Quorum runs every replica, in slot order.
		engines := p.Engines()
		var want, wantSecond []string
		if quorum {
			for slot, e := range engines {
				want = append(want, wantDraws(fmt.Sprintf("r%d", slot), e)...)
			}
			wantSecond = want
		} else {
			if r := br.Results[0].Replica; r != 0 {
				t.Fatalf("first round-robin request served by replica %d, want 0", r)
			}
			want = wantDraws("r0", engines[0])
			wantSecond = wantDraws("r1", engines[1])
		}
		label := map[bool]string{false: "round-robin", true: "quorum"}[quorum]
		diffDraws(t, label+" request 1", first, want)
		diffDraws(t, label+" request 2", second, wantSecond)
	}
}
