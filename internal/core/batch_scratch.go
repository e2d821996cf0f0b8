package core

import (
	"sync"

	"edgeinfer/internal/tensor"
)

// batchScratch is the reusable bookkeeping of one inferBatchRange call:
// per-image activation maps, the owned-buffer ledger the arena release
// walks, the keep set, and the per-layer input slice. Scratches are
// pooled so steady-state batched inference performs no bookkeeping
// allocation (the hotalloc analyzer verifies this statically; every
// tensor buffer itself comes from the engine's arena). A scratch is
// scrubbed of tensor references before it returns to the pool, so pooled
// scratches never extend activation lifetimes.
type batchScratch struct {
	acts  []map[string]*tensor.Tensor
	owned []*tensor.Tensor
	keep  map[*tensor.Tensor]bool
	ins   []*tensor.Tensor
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// actMaps returns n empty per-image activation maps, reusing prior
// capacity. The maps are cleared on checkout rather than check-in so a
// scrub bug cannot leak one image's activations into the next batch.
//
//rt:hotpath
func (s *batchScratch) actMaps(n int) []map[string]*tensor.Tensor {
	if cap(s.acts) < n {
		s.acts = make([]map[string]*tensor.Tensor, n)
	}
	s.acts = s.acts[:n]
	for i := range s.acts {
		if s.acts[i] == nil {
			s.acts[i] = map[string]*tensor.Tensor{}
		} else {
			clear(s.acts[i])
		}
	}
	return s.acts
}

// keepSet returns the cleared keep map.
//
//rt:hotpath
func (s *batchScratch) keepSet() map[*tensor.Tensor]bool {
	if s.keep == nil {
		s.keep = map[*tensor.Tensor]bool{}
	}
	clear(s.keep)
	return s.keep
}

// ownedBuf returns the empty owned ledger; callers append to it and hand
// the grown slice back through release.
//
//rt:hotpath
func (s *batchScratch) ownedBuf() []*tensor.Tensor {
	return s.owned[:0]
}

// inputs returns the per-layer input slice resized to n.
//
//rt:hotpath
func (s *batchScratch) inputs(n int) []*tensor.Tensor {
	if cap(s.ins) < n {
		s.ins = make([]*tensor.Tensor, n)
	}
	return s.ins[:n]
}

// release scrubs every tensor reference out of the scratch (keeping the
// grown owned backing) and returns it to the pool.
//
//rt:hotpath
func (s *batchScratch) release(owned []*tensor.Tensor) {
	clear(owned)
	s.owned = owned[:0]
	clear(s.keep)
	clear(s.ins)
	for i := range s.acts {
		clear(s.acts[i])
	}
	batchScratchPool.Put(s)
}
