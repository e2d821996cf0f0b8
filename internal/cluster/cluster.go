// Package cluster simulates partitioned pipeline inference across a
// small edge cluster: N heterogeneous gpusim devices (NX/AGX mixes)
// joined by links with bandwidth and latency, an engine's layer plan
// split at cut points chosen by an analytic cost model, and a pipeline
// executor that streams frames through the stages with in-flight
// activations so stage throughput overlaps (SEIFER's deployment shape
// on top of the paper's single-device latency model).
//
// The robustness contract is the point: under a faults.ClusterPlan
// (link delay/drop/partition, node crash/hang/restart, mid-stream
// stage death) the pipeline answers every frame — a result or an
// explicit shed, never a silent drop and never a wrong answer. The
// sender of each hop retains the boundary activation until the
// downstream stage completes, so failover re-executes from retained
// state and recovered outputs are bit-identical to a fault-free run
// (numerics run on the host either way; only the timing model is
// per-device). Stage heartbeats and a stage watchdog feed the replica
// fleet's own serve.Supervisor, which walks each node through the
// healthy→suspect→quarantined→rebuilding→readmitted lattice, and
// failover promotes a standby node or merges the dead stage into a
// neighbor — re-partitioning the remaining graph — before degrading
// to explicit sheds when no viable cut is left.
package cluster

import (
	"errors"

	"edgeinfer/internal/gpusim"
)

// Node is one simulated cluster member: a device plus the weight
// memory it can hold resident. Edge nodes are memory-constrained
// (SEIFER's partitioning exists because one node cannot hold the whole
// model); MemBytes 0 means unconstrained.
type Node struct {
	// Name labels the node in transcripts ("nx-0", "agx-1", ...).
	Name string
	// Device prices the node's compute via the analytic kernel model.
	Device *gpusim.Device
	// MemBytes caps the stage weight bytes the node can hold; 0 is
	// unconstrained.
	MemBytes int64
}

// NX returns an Xavier NX node at the paper's latency clock.
func NX(name string) Node {
	spec := gpusim.XavierNX()
	return Node{Name: name, Device: gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))}
}

// AGX returns an Xavier AGX node at the paper's latency clock.
func AGX(name string) Node {
	spec := gpusim.XavierAGX()
	return Node{Name: name, Device: gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))}
}

// ErrNoViableCut is returned when no partition satisfies every
// constraint: not enough valid cut positions for the node count, or a
// memory-constrained node that no contiguous stage fits.
var ErrNoViableCut = errors.New("cluster: no viable partition of the layer plan")

// UniformLinks returns n copies of link — the homogeneous-interconnect
// convenience for PartitionEngine and PipelineConfig.
func UniformLinks(n int, link gpusim.Link) []gpusim.Link {
	ls := make([]gpusim.Link, n)
	for i := range ls {
		ls[i] = link
	}
	return ls
}
