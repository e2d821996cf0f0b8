package core

import "edgeinfer/internal/graph"

// StageCuts returns the valid pipeline cut positions of the engine's
// layer graph, ascending. A cut at position c splits the plan into
// layers [0,c) and [c,n): it is valid when the only value crossing the
// boundary is the single activation produced by layer c-1 — every
// earlier layer's activation is fully consumed before the cut (no
// skip connection spans it), and no graph output lives in the front
// half. Cuts whose boundary layer is an input are excluded: a front
// stage that does no compute is not a stage. A Group (group.go) forks
// one member's run off another's at such a cut, since the boundary
// activation is all the back half reads of the front.
func (e *Engine) StageCuts() []int {
	g := e.Graph
	if g == nil {
		return nil
	}
	n := len(g.Layers)
	idx := layerIndex(g)
	// lastUse[i] is the last layer index reading layer i's activation.
	lastUse := make([]int, n)
	for i := range lastUse {
		lastUse[i] = i
	}
	for i, l := range g.Layers {
		for _, in := range l.Inputs {
			if j, ok := idx[in]; ok && i > lastUse[j] {
				lastUse[j] = i
			}
		}
	}
	firstOut := n
	for _, o := range g.Outputs {
		if j, ok := idx[o]; ok && j < firstOut {
			firstOut = j
		}
	}
	var cuts []int
	maxUse := -1 // max lastUse over layers [0, c-2]
	for c := 1; c < n; c++ {
		if c >= 2 && lastUse[c-2] > maxUse {
			maxUse = lastUse[c-2]
		}
		if maxUse > c-1 { // a non-boundary activation crosses the cut
			continue
		}
		if firstOut < c { // a graph output would be stranded up front
			continue
		}
		if g.Layers[c-1].Op == graph.OpInput {
			continue
		}
		cuts = append(cuts, c)
	}
	return cuts
}
