package graph

import "edgeinfer/internal/tensor"

// Builder provides a fluent chain API for constructing Graphs: each call
// appends a layer consuming the cursor (the previously added layer) and
// moves the cursor to it. Branching networks use From and the explicit
// multi-input ops (AddJoin, ConcatJoin).
type Builder struct {
	G      *Graph
	cursor string
}

// NewBuilder starts a graph with the given input shape; the cursor is the
// input layer "data".
func NewBuilder(name string, inputShape [4]int) *Builder {
	return &Builder{G: New(name, inputShape), cursor: "data"}
}

// From moves the cursor to an existing layer, returning the builder for
// chaining branch construction.
func (b *Builder) From(name string) *Builder {
	if b.G.Layer(name) == nil {
		panic("graph: From on unknown layer " + name)
	}
	nb := *b
	nb.cursor = name
	return &nb
}

// Cursor returns the name of the current cursor layer.
func (b *Builder) Cursor() string { return b.cursor }

func (b *Builder) add(l *Layer) *Builder {
	l.Inputs = []string{b.cursor}
	b.G.Add(l)
	b.cursor = l.Name
	return b
}

// Conv appends a 2-D convolution.
func (b *Builder) Conv(name string, outC, kernel, stride, pad int) *Builder {
	return b.add(&Layer{Name: name, Op: OpConv,
		Conv: tensor.ConvParams{OutC: outC, Kernel: kernel, Stride: stride, Pad: pad, Groups: 1}})
}

// DWConv appends a depthwise convolution (groups == input channels).
func (b *Builder) DWConv(name string, channels, kernel, stride, pad int) *Builder {
	return b.add(&Layer{Name: name, Op: OpConv,
		Conv: tensor.ConvParams{OutC: channels, Kernel: kernel, Stride: stride, Pad: pad, Groups: channels}})
}

// MaxPool appends a max-pooling layer.
func (b *Builder) MaxPool(name string, kernel, stride, pad int) *Builder {
	return b.add(&Layer{Name: name, Op: OpMaxPool, Pool: tensor.PoolParams{Kernel: kernel, Stride: stride, Pad: pad}})
}

// AvgPool appends an average-pooling layer.
func (b *Builder) AvgPool(name string, kernel, stride, pad int) *Builder {
	return b.add(&Layer{Name: name, Op: OpAvgPool, Pool: tensor.PoolParams{Kernel: kernel, Stride: stride, Pad: pad}})
}

// GlobalAvgPool appends a global average pool.
func (b *Builder) GlobalAvgPool(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpGlobalAvgPool})
}

// ReLU appends a ReLU activation.
func (b *Builder) ReLU(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpReLU})
}

// LeakyReLU appends a leaky ReLU with slope alpha.
func (b *Builder) LeakyReLU(name string, alpha float32) *Builder {
	return b.add(&Layer{Name: name, Op: OpLeakyReLU, Alpha: alpha})
}

// Sigmoid appends a sigmoid activation.
func (b *Builder) Sigmoid(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpSigmoid})
}

// FC appends a fully-connected layer with out units.
func (b *Builder) FC(name string, out int) *Builder {
	return b.add(&Layer{Name: name, Op: OpFC, OutUnits: out})
}

// BatchNorm appends an inference-mode batch normalization.
func (b *Builder) BatchNorm(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpBatchNorm})
}

// LRN appends local response normalization with AlexNet-style defaults.
func (b *Builder) LRN(name string, size int, alpha, beta, k float32) *Builder {
	return b.add(&Layer{Name: name, Op: OpLRN, LRNSize: size, Alpha: alpha, LRNBeta: beta, LRNK: k})
}

// Softmax appends a softmax.
func (b *Builder) Softmax(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpSoftmax})
}

// Dropout appends a training-only dropout layer (dead at inference).
func (b *Builder) Dropout(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpDropout})
}

// Scale appends an affine per-channel scale layer.
func (b *Builder) Scale(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpScale})
}

// Upsample appends a 2x nearest-neighbour upsample.
func (b *Builder) Upsample(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpUpsample})
}

// Flatten appends an explicit flatten.
func (b *Builder) Flatten(name string) *Builder {
	return b.add(&Layer{Name: name, Op: OpFlatten})
}

// AddJoin appends an elementwise-add joining the cursor with the named
// branches.
func (b *Builder) AddJoin(name string, others ...string) *Builder {
	l := &Layer{Name: name, Op: OpAdd, Inputs: append([]string{b.cursor}, others...)}
	b.G.Add(l)
	b.cursor = name
	return b
}

// ConcatJoin appends a channel concat of the named layers (the cursor is
// NOT implicitly included).
func (b *Builder) ConcatJoin(name string, inputs ...string) *Builder {
	l := &Layer{Name: name, Op: OpConcat, Inputs: inputs}
	b.G.Add(l)
	b.cursor = name
	return b
}

// Finish finalizes and returns the graph, reporting structural errors.
// Builders driven by external input (generated architectures, imported
// topologies) must use Finish so a bad graph surfaces as an error.
func (b *Builder) Finish() (*Graph, error) {
	if err := b.G.Finalize(); err != nil {
		return nil, err
	}
	return b.G, nil
}

// Done is Finish for static model definitions, where a structural failure
// is a programming bug and panicking at init/build time is the right
// behaviour. It is unreachable from the untrusted plan-loading path.
func (b *Builder) Done() *Graph {
	g, err := b.Finish()
	if err != nil {
		panic(err) //rt:allow panicpath -- static model definitions only; external input uses Finish
	}
	return g
}
