// Package cluster provides the simulated distributed platform that stands in
// for the paper's MPI deployment on an IBM iDataPlex cluster.
//
// P logical processors (ranks) run as goroutines and execute the *real*
// distributed algorithm — each rank owns its column block, computes real
// partial products, and exchanges real vectors through Reduce/Broadcast
// collectives. The runtime counts, per rank, every floating-point operation
// reported and every word moved through a collective, and converts the
// counts into modeled time and energy through a platform cost model: a
// bulk-synchronous accounting where each collective closes a phase whose
// cost is the slowest rank's compute plus the critical-path communication.
//
// Different paper platforms (1×1, 1×4, 2×8, 8×8 nodes×cores) are expressed
// as topologies with different word-per-flop cost ratios — inter-node words
// are an order of magnitude more expensive than intra-node words — which is
// exactly the platform parameter (R_bf, Eq. 2/3) ExtDict tunes against.
package cluster

import "fmt"

// Topology is a cluster shape: Nodes machines with CoresPerNode cores each.
// Ranks are laid out node-major: rank r lives on node r / CoresPerNode.
type Topology struct {
	Nodes        int
	CoresPerNode int
}

// P returns the total number of ranks.
func (t Topology) P() int { return t.Nodes * t.CoresPerNode }

// String renders the paper's "nodes × cores" notation.
func (t Topology) String() string { return fmt.Sprintf("%dx%d", t.Nodes, t.CoresPerNode) }

// Validate reports invalid topologies.
func (t Topology) Validate() error {
	if t.Nodes < 1 || t.CoresPerNode < 1 {
		return fmt.Errorf("cluster: invalid topology %dx%d", t.Nodes, t.CoresPerNode)
	}
	return nil
}

// CostModel converts operation counts into modeled time and energy.
// The defaults are calibrated to commodity-cluster ratios (≈1 GFLOP/s/core
// effective dense throughput, ~10 GB/s intra-node and ~1 GB/s inter-node
// links); only the *ratios* matter for every trend in the paper.
//
// MemByteTime prices the local memory traffic the kernels stream
// (Rank.AddBytes claims): ~10 GB/s of core-visible bandwidth. PeakFlopTime
// is the ALU-limited flop cost (≈4 GFLOP/s) a kernel would reach were it
// never waiting on memory; it enters the model only through the roofline
// classification (MachineBalance), never through the time accounting —
// FlopTime remains the achieved, bandwidth-bound dense throughput.
type CostModel struct {
	FlopTime      float64 // seconds per floating point operation
	MemByteTime   float64 // seconds per byte of kernel memory traffic
	PeakFlopTime  float64 // seconds per flop at ALU peak (roofline ceiling)
	IntraWordTime float64 // seconds per word on the critical path, same node
	InterWordTime float64 // seconds per word on the critical path, cross node
	IntraLatency  float64 // seconds per collective hop, same node
	InterLatency  float64 // seconds per collective hop, cross node

	FlopEnergy      float64 // joules per flop
	IntraWordEnergy float64 // joules per word moved, same node
	InterWordEnergy float64 // joules per word moved, cross node

	// MemBytes is the RAM available to one rank in bytes — the capacity
	// side of Eq. 4. A run whose per-rank resident set (the operators'
	// AddResident claims, statically derived by the allocmodel analyzer)
	// exceeds it does not fit in memory and must fall back to a smaller
	// transform or an out-of-core schedule. Zero means "use the default"
	// (2 GiB, a deliberately modest commodity-node share so the paper-scale
	// reference shapes exercise both verdicts).
	MemBytes int64
}

// DefaultCostModel returns the calibrated commodity-cluster cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		FlopTime:      1e-9,
		MemByteTime:   0.1e-9,
		PeakFlopTime:  0.25e-9,
		IntraWordTime: 0.8e-9,
		InterWordTime: 8e-9,
		IntraLatency:  0.3e-6,
		InterLatency:  2e-6,

		FlopEnergy:      100e-12,
		IntraWordEnergy: 1e-9,
		InterWordEnergy: 12e-9,

		MemBytes: DefaultMemBytes,
	}
}

// Platform is a topology plus its cost model.
type Platform struct {
	Topology Topology
	Cost     CostModel
}

// NewPlatform builds a platform with the default cost model.
func NewPlatform(nodes, coresPerNode int) Platform {
	return Platform{
		Topology: Topology{Nodes: nodes, CoresPerNode: coresPerNode},
		Cost:     DefaultCostModel(),
	}
}

// PaperPlatforms returns the four configurations the evaluation sweeps
// (§VIII-B3): 1×1, 1×4, 2×8, and 8×8 nodes×cores.
func PaperPlatforms() []Platform {
	return []Platform{
		NewPlatform(1, 1),
		NewPlatform(1, 4),
		NewPlatform(2, 8),
		NewPlatform(8, 8),
	}
}

// crossNode reports whether collectives on this platform cross node
// boundaries (which determines the word cost on the critical path).
func (p Platform) crossNode() bool { return p.Topology.Nodes > 1 }

// WordTime returns the critical-path seconds per communicated word.
func (p Platform) WordTime() float64 {
	if p.crossNode() {
		return p.Cost.InterWordTime
	}
	return p.Cost.IntraWordTime
}

// WordEnergy returns the joules per communicated word.
func (p Platform) WordEnergy() float64 {
	if p.crossNode() {
		return p.Cost.InterWordEnergy
	}
	return p.Cost.IntraWordEnergy
}

// Latency returns the per-hop collective latency.
func (p Platform) Latency() float64 {
	if p.crossNode() {
		return p.Cost.InterLatency
	}
	return p.Cost.IntraLatency
}

// DefaultMemBytes is the per-rank RAM assumed when a cost model leaves
// MemBytes zero: 2 GiB.
const DefaultMemBytes int64 = 2 << 30

// MemBytesCapacity returns the per-rank RAM capacity in bytes, applying the
// default when the cost model leaves it unset. It is the threshold the
// static capacity report (extdict-lint -capacity) classifies resident-set
// polynomials against.
func (p Platform) MemBytesCapacity() int64 {
	if p.Cost.MemBytes > 0 {
		return p.Cost.MemBytes
	}
	return DefaultMemBytes
}

// MachineBalance returns the roofline ridge point in flops per byte: a
// kernel whose arithmetic intensity (flops ÷ bytes streamed) exceeds this
// ratio is compute-bound at ALU peak; below it the kernel is limited by
// memory bandwidth. With the default model the ridge sits at 0.4 flop/byte,
// so the 2-flop-per-8-byte dense kernels (intensity 0.25) land bandwidth-
// bound — the regime the blocked kernel layer is designed for.
func (p Platform) MachineBalance() float64 {
	if p.Cost.PeakFlopTime == 0 {
		return 0
	}
	return p.Cost.MemByteTime / p.Cost.PeakFlopTime
}
