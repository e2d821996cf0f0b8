package tensor_test

import (
	"fmt"
	"testing"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/kernels"
	"edgeinfer/internal/tensor"
)

// agreementRow is one geometry for a conv, fc or pool layer. want is the
// rule's error body; "" means the geometry is legal.
type agreementRow struct {
	name   string
	op     graph.OpType // OpConv, OpFC or OpMaxPool (run as max and average pool)
	in     [4]int
	conv   tensor.ConvParams
	pool   tensor.PoolParams
	out    int // fc units
	wLen   int // weight length; 0 for the legal length (or 1 where none is)
	bLen   int // bias length; 0 for no bias
	want   string
	wfault bool // a weight or bias fault, which shape inference cannot see
}

// TestGeometryAgreement runs one table of hostile geometries through
// every layer that asks the geometry rule — the rule itself, the
// reference operator, graph shape inference (AddLayer + Finalize), the
// graph interpreter (EvalLayerInto) and the engine kernels
// (ExecConvInto / ExecFCInto) — and requires the same verdict and the
// same error body from each, under its own prefix. Shape inference reads
// no weights, so a weight or bias fault passes Finalize and the graph's
// verdict on it is Execute's. The kernels have no pool.
func TestGeometryAgreement(t *testing.T) {
	dense := tensor.ConvParams{OutC: 4, Kernel: 3, Stride: 1, Pad: 1}
	with := func(f func(p *tensor.ConvParams)) tensor.ConvParams {
		p := dense
		f(&p)
		return p
	}
	in := [4]int{1, 4, 6, 6}
	rows := []agreementRow{
		{name: "conv legal", op: graph.OpConv, in: in, conv: dense, bLen: 4},
		{name: "conv groups 0 is 1, strided, batch 2", op: graph.OpConv, in: [4]int{2, 1, 3, 5}, conv: with(func(p *tensor.ConvParams) { p.Stride = 2 })},
		{name: "conv k=0", op: graph.OpConv, in: in, conv: with(func(p *tensor.ConvParams) { p.Kernel = 0 }),
			want: "conv params k=0 s=1 p=1 outC=4 invalid"},
		{name: "conv s=0", op: graph.OpConv, in: in, conv: with(func(p *tensor.ConvParams) { p.Stride = 0 }),
			want: "conv params k=3 s=0 p=1 outC=4 invalid"},
		{name: "conv pad<0", op: graph.OpConv, in: in, conv: with(func(p *tensor.ConvParams) { p.Pad = -1 }),
			want: "conv params k=3 s=1 p=-1 outC=4 invalid"},
		{name: "conv groups -2", op: graph.OpConv, in: in, conv: with(func(p *tensor.ConvParams) { p.Groups = -2 }),
			want: "conv groups -2 negative"},
		{name: "conv groups do not divide", op: graph.OpConv, in: in, conv: with(func(p *tensor.ConvParams) { p.Groups = 3 }),
			want: "conv groups 3 do not divide channels in=4 out=4"},
		{name: "conv weight length +1", op: graph.OpConv, in: in, conv: dense, wLen: 4*4*9 + 1,
			want: "conv weight len 145, want 144", wfault: true},
		{name: "conv weight length -1", op: graph.OpConv, in: in, conv: dense, wLen: 4*4*9 - 1,
			want: "conv weight len 143, want 144", wfault: true},
		{name: "conv short bias", op: graph.OpConv, in: in, conv: dense, bLen: 3,
			want: "conv bias len 3, want 4", wfault: true},
		{name: "conv output vanishes", op: graph.OpConv, in: [4]int{1, 4, 2, 6}, conv: with(func(p *tensor.ConvParams) { p.Pad = 0 }),
			want: "conv output 0x4 not positive (input 2x6)"},
		{name: "fc legal", op: graph.OpFC, in: in, out: 3, bLen: 3},
		{name: "fc out=0", op: graph.OpFC, in: in, out: 0,
			want: "fc with out=0"},
		{name: "fc weight mismatch", op: graph.OpFC, in: in, out: 3, wLen: 3*144 - 1,
			want: "fc weight len 431, want 432", wfault: true},
		{name: "fc short bias", op: graph.OpFC, in: in, out: 3, bLen: 2,
			want: "fc bias len 2, want 3", wfault: true},
		{name: "pool legal", op: graph.OpMaxPool, in: in, pool: tensor.PoolParams{Kernel: 3, Stride: 2, Pad: 1}},
		{name: "pool k=0", op: graph.OpMaxPool, in: in, pool: tensor.PoolParams{Kernel: 0, Stride: 1},
			want: "pool params k=0 s=1 p=0 invalid"},
		{name: "pool s=0", op: graph.OpMaxPool, in: in, pool: tensor.PoolParams{Kernel: 2, Stride: 0},
			want: "pool params k=2 s=0 p=0 invalid"},
		{name: "pool larger than its input", op: graph.OpMaxPool, in: [4]int{1, 2, 3, 3}, pool: tensor.PoolParams{Kernel: 5, Stride: 1},
			want: "pool output -1x-1 not positive (input 3x3)"},
	}
	for _, r := range rows {
		ops := []graph.OpType{r.op}
		if r.op == graph.OpMaxPool {
			ops = append(ops, graph.OpAvgPool)
		}
		for _, op := range ops {
			r.op = op
			t.Run(r.name+"/"+op.String(), func(t *testing.T) { checkAgreement(t, r) })
		}
	}
}

func checkAgreement(t *testing.T, r agreementRow) {
	x := filled(r.in[0], r.in[1], r.in[2], r.in[3])
	var w, b *tensor.Tensor
	if r.op == graph.OpConv || r.op == graph.OpFC {
		n := r.wLen
		if n == 0 && r.op == graph.OpConv {
			groups := max(r.conv.Groups, 1)
			n = r.conv.OutC * (r.in[1] / groups) * r.conv.Kernel * r.conv.Kernel
		} else if n == 0 {
			n = r.out * r.in[1] * r.in[2] * r.in[3]
		}
		w = filled(1, max(n, 1), 1, 1)
		if r.bLen > 0 {
			b = filled(1, r.bLen, 1, 1)
		}
	}

	// The rule itself.
	var rule error
	switch r.op {
	case graph.OpConv:
		_, rule = tensor.CheckConv(r.in, w, b, r.conv)
	case graph.OpFC:
		_, rule = tensor.CheckFC(r.in, w, b, r.out)
	default:
		_, _, rule = tensor.CheckPool(r.in, r.pool)
	}
	agree(t, "rule", "", r.want, rule)

	// The reference operator panics with the rule's error.
	agree(t, "tensor operator", "tensor: ", r.want, func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p)
			}
		}()
		y := new(tensor.Tensor)
		switch r.op {
		case graph.OpConv:
			tensor.Conv2DInto(x, w, b, r.conv, y)
		case graph.OpFC:
			tensor.FCInto(x, w, b, r.out, y)
		case graph.OpMaxPool:
			tensor.MaxPool2DInto(x, r.pool, y)
		default:
			tensor.AvgPool2DInto(x, r.pool, y)
		}
		return nil
	}())

	// Shape inference, then — for the faults only weights show — the
	// interpreter over the finalized graph.
	l := &graph.Layer{Name: "op", Op: r.op, Inputs: []string{"data"}, Conv: r.conv, Pool: r.pool, OutUnits: r.out,
		Weights: map[string]*tensor.Tensor{}}
	if w != nil {
		l.Weights["w"] = w
	}
	if b != nil {
		l.Weights["b"] = b
	}
	g := graph.New("agree", r.in)
	if err := g.AddLayer(l); err != nil {
		t.Fatal(err)
	}
	err := g.Finalize()
	if r.wfault {
		if err != nil {
			t.Fatalf("Finalize rejects a weight fault it cannot see: %v", err)
		}
		_, err = g.Execute(x)
		agree(t, "graph.Execute", "graph agree, layer op: ", r.want, err)
	} else {
		agree(t, "graph.Finalize", fmt.Sprintf("graph agree, layer op(%s): ", r.op), r.want, err)
	}

	// The interpreter, unprefixed: its caller names the layer.
	agree(t, "graph.EvalLayerInto", "", r.want, graph.EvalLayerInto(l, []*tensor.Tensor{x}, new(tensor.Tensor)))

	// The engine kernels, into an output of the legal shape where there
	// is one.
	v := kernels.Variant{Family: kernels.FamCUDAConv, TileK: 32, Precision: tensor.FP32}
	switch r.op {
	case graph.OpConv:
		y := filled(1, 1, 1, 1)
		if geo, err := tensor.CheckConv(r.in, nil, nil, r.conv); err == nil {
			y = filled(r.in[0], r.conv.OutC, geo.OH, geo.OW)
		}
		agree(t, "kernels.ExecConvInto", "kernels: ", r.want, kernels.ExecConvInto(v, x, w, b, r.conv, y))
	case graph.OpFC:
		y := filled(r.in[0], max(r.out, 1), 1, 1)
		agree(t, "kernels.ExecFCInto", "kernels: ", r.want, kernels.ExecFCInto(v, x, w, b, r.out, y))
	}
}

// agree fails unless err is prefix+want, or nil where want is "".
func agree(t *testing.T, layer, prefix, want string, err error) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s rejects a legal geometry: %v", layer, err)
	case want != "" && err == nil:
		t.Errorf("%s accepts it, want %q", layer, prefix+want)
	case want != "" && err.Error() != prefix+want:
		t.Errorf("%s: %q, want %q", layer, err, prefix+want)
	}
}

// filled is an [n, c, h, w] tensor of small distinct values.
func filled(n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = float32(i%7-3) / 4
	}
	return x
}
