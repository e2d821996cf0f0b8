package kernels

import (
	"fmt"
	"sync"

	"edgeinfer/internal/tensor"
)

// Numeric execution of conv/FC variants. Each variant accumulates in a
// different order and rounds partial sums to its precision at its own
// tile boundaries, exactly as real kernels with different tile shapes and
// reduction splits do. Two engines whose variants for the same layer
// differ in that (see Numerics) therefore produce (slightly) different
// outputs on the same input — the mechanism behind the paper's Tables V
// and VI.
//
// Execution is parallel and allocation-free in the steady state: the
// output space is partitioned into contiguous row/unit ranges across the
// shared worker pool (pool.go), workers write disjoint output regions,
// and every output element's reduction runs in exactly the serial order —
// tile partials in ascending channel order through reduce (conv) or
// dotTile (fc), folded by Numerics.combine — so outputs are bit-identical
// to serial execution for every variant, worker count and chunk placement.

// Numerics is the projection of a Variant that reaches an add or a
// rounding. Everything below ExecConv[Into]/ExecFC[Into] takes it in
// place of the Variant, so the compiler proves that Family, TileM, TileN
// and NHWC cannot influence an output bit: two variants with equal
// Numerics compute bit-identical results on equal operands. Comparable
// with ==; core.Engine.SameNumerics is built on that, and a tactic family
// with numerics of its own (ROADMAP item 2) has to enter through here.
type Numerics struct {
	TileK    int  // reduction tile: where partial sums are rounded
	SplitK   bool // tile partials fold through two independent accumulators
	Half     bool // partials, folds and the epilogue round to FP16
	FusedAct bool // ReLU in the epilogue
}

// Numerics projects the variant onto what its numeric execution reads.
// INT8 kernels accumulate in FP16-equivalent precision here; the weight
// quantization itself is applied by the builder.
func (v Variant) Numerics() Numerics {
	return Numerics{
		TileK:    v.TileK,
		SplitK:   v.SplitK > 1,
		Half:     v.Precision == tensor.FP16 || v.Precision == tensor.INT8,
		FusedAct: v.FusedAct,
	}
}

// roundTo rounds a partial sum to the compute precision.
func (nu Numerics) roundTo(x float32) float32 {
	if nu.Half {
		return tensor.RoundFP16(x)
	}
	return x
}

// tileChannels converts the reduction tile (in GEMM-K units) to input
// channels for a kxk convolution.
func (nu Numerics) tileChannels(kernel int) int {
	tc := nu.TileK / (kernel * kernel)
	if tc < 1 {
		tc = 1
	}
	return tc
}

// chunkMACs sizes a parallel work chunk: one chunk is roughly this many
// multiply-accumulates, so small layers run inline (a single chunk) and
// large layers split finely enough to balance across workers.
const chunkMACs = 16384

// grainFor converts per-unit work into a chunk grain of ~chunkMACs.
func grainFor(unitMACs int) int {
	if unitMACs >= chunkMACs || unitMACs <= 0 {
		return 1
	}
	return (chunkMACs + unitMACs - 1) / unitMACs
}

// validateConv checks conv inputs the way a hardened runtime must:
// mismatched weights or degenerate parameters — the signature of a
// corrupted engine plan — return an error rather than crashing.
func validateConv(x, w, b *tensor.Tensor, p tensor.ConvParams) (tensor.ConvGeom, error) {
	if x == nil || w == nil {
		return tensor.ConvGeom{}, fmt.Errorf("kernels: conv with nil input or weights")
	}
	g, err := tensor.CheckConv(x.Shape(), w, b, p)
	if err != nil {
		return g, fmt.Errorf("kernels: %w", err)
	}
	return g, nil
}

// ExecConv runs a convolution with variant-specific accumulation. The
// weight tensor layout matches tensor.Conv2D. Mismatched weights or
// degenerate parameters — the signature of a corrupted engine plan —
// return an error rather than crashing the process.
func ExecConv(v Variant, x, w, b *tensor.Tensor, p tensor.ConvParams) (*tensor.Tensor, error) {
	g, err := validateConv(x, w, b, p)
	if err != nil {
		return nil, err
	}
	y := tensor.New(x.N, p.OutC, g.OH, g.OW)
	execConv(v.Numerics(), x, w, b, p, y, g)
	return y, nil
}

// ExecConvInto is ExecConv writing into a caller-provided output tensor
// (every element is overwritten), so activation buffers can be reused
// across inferences instead of churning the allocator. y must have shape
// [x.N, p.OutC, oh, ow].
//
//rt:hotpath
func ExecConvInto(v Variant, x, w, b *tensor.Tensor, p tensor.ConvParams, y *tensor.Tensor) error {
	g, err := validateConv(x, w, b, p)
	if err != nil {
		return err
	}
	if y == nil || y.N != x.N || y.C != p.OutC || y.H != g.OH || y.W != g.OW {
		return fmt.Errorf("kernels: conv output buffer %v, want [%d %d %d %d]", y, x.N, p.OutC, g.OH, g.OW)
	}
	execConv(v.Numerics(), x, w, b, p, y, g)
	return nil
}

// convExec carries the validated geometry of one conv execution.
type convExec struct {
	nu      Numerics
	x, w, b *tensor.Tensor
	p       tensor.ConvParams
	y       *tensor.Tensor
	oh, ow  int
	groups  int
	icg     int // input channels per group
	ocg     int // output channels per group
	kk      int // Kernel*Kernel
	tileC   int // reduction-tile width in input channels
}

var convExecPool = sync.Pool{New: func() any { return new(convExec) }}

// execConv partitions the output by (batch, output row) across the
// worker pool. Each row task computes every output channel of that row.
// The descriptor is pooled: dispatching a conv allocates nothing in the
// steady state.
func execConv(nu Numerics, x, w, b *tensor.Tensor, p tensor.ConvParams, y *tensor.Tensor, g tensor.ConvGeom) {
	c := convExecPool.Get().(*convExec)
	*c = convExec{
		nu: nu, x: x, w: w, b: b, p: p, y: y,
		oh: g.OH, ow: g.OW, groups: g.Groups, icg: g.ICG,
		ocg: p.OutC / g.Groups, kk: p.Kernel * p.Kernel,
		tileC: nu.tileChannels(p.Kernel),
	}
	rows := x.N * g.OH
	rowMACs := g.OW * p.OutC * g.ICG * c.kk
	parallelFor(rows, grainFor(rowMACs), c)
	*c = convExec{} // drop tensor references before pooling
	convExecPool.Put(c)
}

// chunk implements chunkBody over (batch, output row) units. Annotated
// directly because hotalloc does not traverse the chunkBody interface
// dispatch inside parallelFor.
//
//rt:hotpath
func (c *convExec) chunk(s *execScratch, lo, hi int) {
	for r := lo; r < hi; r++ {
		c.row(s, r/c.oh, r%c.oh)
	}
}

// row computes one output row (n, i, all channels, all columns).
func (c *convExec) row(s *execScratch, n, i int) {
	k, stride, pad := c.p.Kernel, c.p.Stride, c.p.Pad
	ih0 := i*stride - pad
	khLo, khHi := tapRange(ih0, k, c.x.H)
	for j := 0; j < c.ow; j++ {
		iw0 := j*stride - pad
		kwLo, kwHi := tapRange(iw0, k, c.x.W)
		if khLo == khHi || kwLo == kwHi {
			// The window lies wholly in the padding (pad ≥ k): it reads
			// nothing, and its element is the epilogue of +0 plus the
			// bias — what tensor.Conv2D writes there.
			for oc := 0; oc < c.p.OutC; oc++ {
				c.store(n, oc, i, j, 0)
			}
			continue
		}
		for g := 0; g < c.groups; g++ {
			for oc := g * c.ocg; oc < (g+1)*c.ocg; oc++ {
				c.store(n, oc, i, j, c.reduce(s, n, oc, g, ih0, iw0, khLo, khHi, kwLo, kwHi))
			}
		}
	}
}

// tapRange returns the taps [lo, hi) of a k-wide window starting at input
// position at that land inside an input of n positions; lo == hi when
// none does.
func tapRange(at, k, n int) (lo, hi int) {
	lo, hi = max(-at, 0), min(k, n-at)
	return lo, max(hi, lo)
}

// store applies bias, the variant's epilogue rounding and the fused
// activation, then writes the element. Workers write disjoint rows, so
// no synchronization is needed.
func (c *convExec) store(n, oc, i, j int, val float32) {
	var bias float32
	if c.b != nil {
		bias = c.b.Data[oc]
	}
	val = c.nu.roundTo(val + bias)
	if c.nu.FusedAct && val < 0 {
		val = 0
	}
	c.y.Data[((n*c.y.C+oc)*c.oh+i)*c.ow+j] = val
}

// dotTile computes one reduction tile's partial sum and rounds it to the
// variant precision. Every multiply-accumulate of an fc flows through
// here, in ascending index order with w*x operand order — the same
// sequence the per-element serial loop produced.
func (nu Numerics) dotTile(x, w []float32) float32 {
	var acc float32
	for i, xv := range x {
		acc += w[i] * xv
	}
	return nu.roundTo(acc)
}

// reduce accumulates output element oc of group g, iterating only the
// in-bounds kernel taps [khLo, khHi) × [kwLo, kwHi) in (channel, kh, kw)
// order — the serial loop's order, which skipped out-of-bounds taps. Each
// reduction tile's partial is rounded, and the partials fold through
// combine. Row slices hoist the index arithmetic out of the inner loop.
func (c *convExec) reduce(s *execScratch, n, oc, g, ih0, iw0, khLo, khHi, kwLo, kwHi int) float32 {
	k := c.p.Kernel
	partials := s.tiles((c.icg + c.tileC - 1) / c.tileC)
	for c0 := 0; c0 < c.icg; c0 += c.tileC {
		c1 := c0 + c.tileC
		if c1 > c.icg {
			c1 = c.icg
		}
		var acc float32
		for cc := c0; cc < c1; cc++ {
			ic := g*c.icg + cc
			wbase := (oc*c.icg + cc) * c.kk
			for kh := khLo; kh < khHi; kh++ {
				xoff := ((n*c.x.C+ic)*c.x.H+ih0+kh)*c.x.W + iw0
				woff := wbase + kh*k
				xrow := c.x.Data[xoff+kwLo : xoff+kwHi]
				wrow := c.w.Data[woff+kwLo : woff+kwHi]
				for t, xv := range xrow {
					acc += wrow[t] * xv
				}
			}
		}
		partials = append(partials, c.nu.roundTo(acc))
	}
	s.partials = partials
	return c.nu.combine(partials)
}

// combine folds tile partials into the final sum in the variant's order.
func (nu Numerics) combine(partials []float32) float32 {
	if len(partials) == 0 {
		return 0
	}
	if nu.SplitK && len(partials) > 1 {
		// Split-K: independent accumulators per half, combined at the end.
		mid := len(partials) / 2
		var lo, hi float32
		for _, p := range partials[:mid] {
			lo = nu.roundTo(lo + p)
		}
		for _, p := range partials[mid:] {
			hi = nu.roundTo(hi + p)
		}
		return nu.roundTo(lo + hi)
	}
	var acc float32
	for _, p := range partials {
		acc = nu.roundTo(acc + p)
	}
	return acc
}

// validateFC checks FC inputs; see validateConv.
func validateFC(x, w, b *tensor.Tensor, out int) (in int, err error) {
	if x == nil || w == nil {
		return 0, fmt.Errorf("kernels: fc with nil input or weights")
	}
	if in, err = tensor.CheckFC(x.Shape(), w, b, out); err != nil {
		return 0, fmt.Errorf("kernels: %w", err)
	}
	return in, nil
}

// ExecFC runs a fully-connected layer with variant-specific accumulation.
// Like ExecConv, malformed weights return an error instead of panicking.
func ExecFC(v Variant, x, w, b *tensor.Tensor, out int) (*tensor.Tensor, error) {
	in, err := validateFC(x, w, b, out)
	if err != nil {
		return nil, err
	}
	y := tensor.New(x.N, out, 1, 1)
	execFC(v.Numerics(), x, w, b, out, in, y)
	return y, nil
}

// ExecFCInto is ExecFC writing into a caller-provided [x.N, out, 1, 1]
// output tensor; every element is overwritten.
//
//rt:hotpath
func ExecFCInto(v Variant, x, w, b *tensor.Tensor, out int, y *tensor.Tensor) error {
	in, err := validateFC(x, w, b, out)
	if err != nil {
		return err
	}
	if y == nil || y.N != x.N || y.C != out || y.H != 1 || y.W != 1 {
		return fmt.Errorf("kernels: fc output buffer %v, want [%d %d 1 1]", y, x.N, out)
	}
	execFC(v.Numerics(), x, w, b, out, in, y)
	return nil
}

// fcExec carries the validated geometry of one FC execution.
type fcExec struct {
	nu          Numerics
	x, w, b     *tensor.Tensor
	y           *tensor.Tensor
	out, in     int
	tile, tiles int
}

var fcExecPool = sync.Pool{New: func() any { return new(fcExec) }}

// execFC partitions the output by (batch, output unit) across the worker
// pool; each unit's reduction tiles accumulate through dotTile in the
// serial order. Like execConv, the descriptor is pooled.
func execFC(nu Numerics, x, w, b *tensor.Tensor, out, in int, y *tensor.Tensor) {
	tile := nu.TileK
	if tile < 1 {
		tile = in
	}
	f := fcExecPool.Get().(*fcExec)
	*f = fcExec{
		nu: nu, x: x, w: w, b: b, y: y,
		out: out, in: in, tile: tile, tiles: (in + tile - 1) / tile,
	}
	parallelFor(x.N*out, grainFor(in), f)
	*f = fcExec{}
	fcExecPool.Put(f)
}

// chunk implements chunkBody over (batch, output unit) units. Annotated
// directly, like (*convExec).chunk, to cover the interface dispatch.
//
//rt:hotpath
func (f *fcExec) chunk(s *execScratch, lo, hi int) {
	for u := lo; u < hi; u++ {
		n, o := u/f.out, u%f.out
		xrow := f.x.Data[n*f.in : (n+1)*f.in]
		wrow := f.w.Data[o*f.in : (o+1)*f.in]
		partials := s.tiles(f.tiles)
		for k0 := 0; k0 < f.in; k0 += f.tile {
			k1 := k0 + f.tile
			if k1 > f.in {
				k1 = f.in
			}
			partials = append(partials, f.nu.dotTile(xrow[k0:k1], wrow[k0:k1]))
		}
		s.partials = partials
		val := f.nu.combine(partials)
		if f.b != nil {
			val = f.nu.roundTo(val + f.b.Data[o])
		}
		if f.nu.FusedAct && val < 0 {
			val = 0
		}
		f.y.Data[n*f.out+o] = val
	}
}
