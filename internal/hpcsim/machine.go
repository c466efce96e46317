// Package hpcsim models the performance of DeepThermo's parallel phases on
// the two supercomputers of the paper's evaluation — Summit (NVIDIA V100)
// and Crusher/Frontier (AMD MI250X) — without the hardware.
//
// The model is the substitution documented in DESIGN.md: scaling *shape*
// comes from the algorithm's communication structure, which is known
// exactly (ring allreduce for data-parallel training, nearest-window
// exchange plus intra-window reduction for REWL), combined with calibrated
// per-device compute rates and per-node network parameters. A stochastic
// straggler term reproduces the load-imbalance droop real bulk-synchronous
// runs show at thousands of ranks. Nothing here executes physics; the
// functional algorithms live in packages rewl, train, and transport, and the
// benchmark harness (experiments E7-E10) uses this package only to extend
// their measured single-node behaviour to 3,000 simulated GPUs.
package hpcsim

// Machine describes one supercomputer's node architecture. Rates are
// "effective sustained" values, not peaks: they fold in the utilization a
// tuned kernel achieves, which is what end-to-end models need.
type Machine struct {
	Name        string
	GPUsPerNode int // schedulable devices per node (GCDs for MI250X)

	// Compute rates.
	TrainFlops float64 // sustained training FLOP/s per device (mixed precision)
	MCStepRate float64 // lattice Metropolis steps/s per device

	// Network: per-node injection (shared by the node's devices) and
	// intra-node fabric (NVLink / Infinity Fabric), bytes/s and seconds.
	NodeInjectionBW float64
	NodeLatency     float64
	IntraBW         float64
	IntraLatency    float64

	// StragglerCV is the coefficient of variation of per-rank phase times;
	// bulk-synchronous phases pay the max over ranks.
	StragglerCV float64
}

// Summit is the IBM AC922 + NVIDIA V100 system of the paper (6 GPUs/node,
// dual EDR InfiniBand).
var Summit = Machine{
	Name:            "Summit (V100)",
	GPUsPerNode:     6,
	TrainFlops:      28e12, // sustained mixed-precision training on V100
	MCStepRate:      0.9e9,
	NodeInjectionBW: 23e9, // dual EDR, ~23 GB/s usable
	NodeLatency:     3.0e-6,
	IntraBW:         150e9, // NVLink 2.0 aggregate per GPU pair group
	IntraLatency:    0.7e-6,
	StragglerCV:     0.03,
}

// Crusher is the HPE Cray EX + AMD MI250X system (Frontier test system):
// 4 MI250X per node = 8 GCDs, 4×25 GB/s Slingshot.
var Crusher = Machine{
	Name:            "Crusher (MI250X)",
	GPUsPerNode:     8,     // 8 GCDs
	TrainFlops:      55e12, // sustained per GCD
	MCStepRate:      1.6e9,
	NodeInjectionBW: 100e9, // 4× Slingshot-11 NICs
	NodeLatency:     2.0e-6,
	IntraBW:         200e9, // Infinity Fabric
	IntraLatency:    0.9e-6,
	StragglerCV:     0.03,
}

// perDeviceBW returns the inter-node bandwidth available to one device when
// all devices on a node communicate at once (the allreduce steady state).
func (m Machine) perDeviceBW() float64 {
	return m.NodeInjectionBW / float64(m.GPUsPerNode)
}

// RingAllreduceTime returns the time for a ring allreduce of `bytes` over n
// devices: 2(n−1) latency hops plus 2(n−1)/n of the buffer through the
// bottleneck link. With fewer devices than a node holds, the ring stays on
// the intra-node fabric.
func (m Machine) RingAllreduceTime(n int, bytes float64) float64 {
	if n <= 1 {
		return 0
	}
	bw, lat := m.perDeviceBW(), m.NodeLatency
	if n <= m.GPUsPerNode {
		bw, lat = m.IntraBW, m.IntraLatency
	}
	steps := float64(2 * (n - 1))
	return steps*lat + 2*float64(n-1)/float64(n)*bytes/bw
}

// PointToPointTime returns the time to move `bytes` between two devices on
// different nodes.
func (m Machine) PointToPointTime(bytes float64) float64 {
	return m.NodeLatency + bytes/m.perDeviceBW()
}

// HierarchicalAllreduceTime models the NCCL/RCCL large-payload schedule:
// an intra-node ring reduce-scatter/allgather on the fast fabric plus an
// inter-node ring among node leaders that uses the node's full injection
// bandwidth (leaders aggregate, so the NIC is not divided among devices).
// This is the schedule that makes gradient allreduce scale on Summit and
// Crusher; the flat ring (RingAllreduceTime) remains the model for small
// payloads such as the REWL ln g merge.
func (m Machine) HierarchicalAllreduceTime(n int, bytes float64) float64 {
	if n <= 1 {
		return 0
	}
	g := m.GPUsPerNode
	if n <= g {
		return m.RingAllreduceTime(n, bytes)
	}
	nodes := (n + g - 1) / g
	intra := 2*float64(g-1)/float64(g)*bytes/m.IntraBW + 2*float64(g-1)*m.IntraLatency
	inter := 2*float64(nodes-1)/float64(nodes)*bytes/m.NodeInjectionBW + 2*float64(nodes-1)*m.NodeLatency
	return intra + inter
}
