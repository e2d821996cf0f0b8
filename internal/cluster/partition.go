package cluster

import (
	"fmt"
	"strings"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
)

// Stage is one pipeline stage of a partition: a contiguous layer range
// bound to a node, priced by the analytic cost model.
type Stage struct {
	// Node indexes the partition's node list.
	Node int
	// From, To bound the half-open layer range [From, To).
	From, To int
	// ComputeSec is one frame's modeled compute on the node's device:
	// the sum of the stage's per-layer launch costs.
	ComputeSec float64
	// WeightBytes is what the stage holds resident.
	WeightBytes int64
	// OutBytes is the boundary activation one frame sends onward (0
	// for the final stage).
	OutBytes int64
	// XferSec is the modeled fault-free transfer time of OutBytes over
	// the stage's outbound link (0 for the final stage).
	XferSec float64
}

// PeriodSec is the stage's occupancy per frame — compute plus outbound
// transfer — the quantity the partitioner's bottleneck minimizes.
func (s Stage) PeriodSec() float64 { return s.ComputeSec + s.XferSec }

// Partition is a chosen split of the layer plan across nodes.
type Partition struct {
	Stages []Stage
	// BottleneckSec is the largest stage period: the steady-state
	// inter-frame interval, so pipeline throughput is 1/BottleneckSec.
	BottleneckSec float64
	// FillSec is one frame's end-to-end latency through an idle
	// pipeline: the sum of every stage period.
	FillSec float64
}

// Cuts returns the chosen cut positions (each stage's To except the
// last) — the partition choice the benchmark archives.
func (p *Partition) Cuts() []int {
	cuts := make([]int, 0, len(p.Stages)-1)
	for _, s := range p.Stages[:len(p.Stages)-1] {
		cuts = append(cuts, s.To)
	}
	return cuts
}

// String renders the partition compactly for transcripts.
func (p *Partition) String() string {
	var b strings.Builder
	for i, s := range p.Stages {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "node%d[%d:%d) %.3gms", s.Node, s.From, s.To, s.ComputeSec*1e3)
		if s.XferSec > 0 {
			fmt.Fprintf(&b, " +%.3gms xfer", s.XferSec*1e3)
		}
	}
	fmt.Fprintf(&b, " (bottleneck %.3gms)", p.BottleneckSec*1e3)
	return b.String()
}

// PartitionEngine splits eng's layer plan across up to len(nodes)
// pipeline stages, nodes in the given order, stage s sending to s+1
// over links[s] (len(links) must be at least len(nodes)-1). Cut points
// come from the engine's valid single-tensor boundaries (StageCuts);
// the cost model prices each candidate stage as its analytic compute
// on that node's device plus its boundary activation over the outbound
// link, and a dynamic program minimizes the largest stage period — the
// pipeline's steady-state bottleneck. Memory-constrained nodes reject
// stages whose weights exceed MemBytes. Fewer stages than nodes is
// allowed (trailing nodes idle as implicit standbys) and chosen
// whenever transfer cost outweighs the parallelism; ties prefer fewer
// stages. Returns ErrNoViableCut when no assignment satisfies every
// constraint.
func PartitionEngine(eng *core.Engine, nodes []Node, links []gpusim.Link) (*Partition, error) {
	if eng == nil || len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: partition needs an engine and at least one node")
	}
	if len(links) < len(nodes)-1 {
		return nil, fmt.Errorf("cluster: %d nodes need %d links, have %d", len(nodes), len(nodes)-1, len(links))
	}
	n := len(eng.Graph.Layers)
	if n == 0 {
		return nil, ErrNoViableCut
	}

	// Candidate stage boundaries: position 0, every valid cut, position n.
	pos := append([]int{0}, eng.StageCuts()...)
	pos = append(pos, n)

	// Per-node prefix sums of the layer cost schedule, so any candidate
	// range prices in O(1).
	prefix := make([][]float64, len(nodes))
	for ni, node := range nodes {
		costs := eng.LayerCostsSec(node.Device)
		ps := make([]float64, n+1)
		for li, c := range costs {
			ps[li+1] = ps[li] + c
		}
		prefix[ni] = ps
	}
	stageCost := func(ni, a, b int) float64 {
		c := prefix[ni][b] - prefix[ni][a]
		if b < n {
			c += linkAt(links, ni).TransferSec(eng.BoundaryBytes(b))
		}
		return c
	}
	fits := func(ni, a, b int) bool {
		return nodes[ni].MemBytes <= 0 || eng.StageWeightBytes(a, b) <= nodes[ni].MemBytes
	}

	const inf = 1e300
	P := len(pos)
	maxStages := len(nodes)
	if maxStages > P-1 {
		maxStages = P - 1 // each stage needs at least one boundary gap
	}
	// best[s][j]: minimal bottleneck covering layers [0, pos[j]) with
	// stages 0..s on nodes 0..s; choice[s][j] reconstructs the split.
	best := make([][]float64, maxStages)
	choice := make([][]int, maxStages)
	for s := range best {
		best[s] = make([]float64, P)
		choice[s] = make([]int, P)
		for j := range best[s] {
			best[s][j] = inf
			choice[s][j] = -1
		}
	}
	for j := 1; j < P; j++ {
		if fits(0, 0, pos[j]) {
			best[0][j] = stageCost(0, 0, pos[j])
		}
	}
	for s := 1; s < maxStages; s++ {
		for j := s + 1; j < P; j++ {
			for k := s; k < j; k++ {
				if best[s-1][k] >= inf || !fits(s, pos[k], pos[j]) {
					continue
				}
				cand := best[s-1][k]
				if c := stageCost(s, pos[k], pos[j]); c > cand {
					cand = c
				}
				if cand < best[s][j] {
					best[s][j] = cand
					choice[s][j] = k
				}
			}
		}
	}

	bestS, bottleneck := -1, inf
	for s := 0; s < maxStages; s++ {
		if best[s][P-1] < bottleneck {
			bottleneck = best[s][P-1]
			bestS = s
		}
	}
	if bestS < 0 {
		return nil, ErrNoViableCut
	}

	// Reconstruct the stage list back to front.
	ends := make([]int, bestS+1)
	j := P - 1
	for s := bestS; s >= 0; s-- {
		ends[s] = j
		if s > 0 {
			j = choice[s][j]
		}
	}
	part := &Partition{BottleneckSec: bottleneck}
	from := 0
	for s := 0; s <= bestS; s++ {
		to := pos[ends[s]]
		st := Stage{
			Node:        s,
			From:        from,
			To:          to,
			ComputeSec:  prefix[s][to] - prefix[s][from],
			WeightBytes: eng.StageWeightBytes(from, to),
		}
		if to < n {
			st.OutBytes = eng.BoundaryBytes(to)
			st.XferSec = links[s].TransferSec(st.OutBytes)
		}
		part.FillSec += st.PeriodSec()
		part.Stages = append(part.Stages, st)
		from = to
	}
	return part, nil
}

// linkAt is link i of links, clamped: the zero Link when there are none,
// the last one past the end. The last node's outbound link is never used
// in a final answer (its stage always ends the plan), but the
// partitioner's DP prices intermediate entries for it, and failover
// stages a replacement over stage i-1's inbound link.
func linkAt(links []gpusim.Link, i int) gpusim.Link {
	if len(links) == 0 {
		return gpusim.Link{}
	}
	return links[min(i, len(links)-1)]
}
