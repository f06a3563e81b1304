// Package platform models the bus-based hardware architecture of the paper
// (Section 2): a set of computation nodes, each available in several
// hardened versions (h-versions) that trade cost and speed for
// reliability, connected by a fault-tolerant bus.
//
// For each h-version N_j^h the model stores the cost C_j^h, the worst-case
// execution time t_ijh of every process P_i on N_j^h, and the process
// failure probability p_ijh of a single execution of P_i on N_j^h. In the
// paper t comes from WCET analysis tools and p from fault-injection
// experiments; here they are supplied by the example definitions, the
// synthetic generator (internal/taskgen) or the fault-injection substrate
// (internal/faultsim).
package platform

import (
	"fmt"
	"math"

	"repro/internal/appmodel"
)

// NodeID identifies a computation node type, dense within a Platform.
type NodeID int

// HVersion is one hardened version N_j^h of a computation node.
type HVersion struct {
	// Level is the hardening level h, 1-based; level 1 is the
	// non-hardened version.
	Level int
	// Cost is the cost C_j^h of using this version.
	Cost float64
	// WCET[i] is t_ijh, the worst-case execution time in milliseconds of
	// process i on this version. Indexed by appmodel.ProcID.
	WCET []float64
	// FailProb[i] is p_ijh, the probability that a single execution of
	// process i on this version fails. Indexed by appmodel.ProcID.
	FailProb []float64
}

// Node is a computation node type with its available h-versions, ordered
// by ascending hardening level.
type Node struct {
	ID       NodeID
	Name     string
	Versions []HVersion
}

// MinLevel returns the lowest available hardening level (normally 1).
func (n *Node) MinLevel() int { return n.Versions[0].Level }

// MaxLevel returns the highest available hardening level.
func (n *Node) MaxLevel() int { return n.Versions[len(n.Versions)-1].Level }

// Version returns the h-version with the given level, or nil if the node
// has no such version. Validated nodes have dense ascending levels, so
// the version sits at index level - Versions[0].Level; a node built by
// hand with gaps or out of order falls back to a scan.
func (n *Node) Version(level int) *HVersion {
	if len(n.Versions) == 0 {
		return nil
	}
	if i := level - n.Versions[0].Level; i >= 0 && i < len(n.Versions) && n.Versions[i].Level == level {
		return &n.Versions[i]
	}
	for i := range n.Versions {
		if n.Versions[i].Level == level {
			return &n.Versions[i]
		}
	}
	return nil
}

// Speed returns a scalar speed measure for ordering architectures: the
// inverse of the mean WCET over all processes at the minimum hardening
// level. Larger is faster.
func (n *Node) Speed() float64 {
	w := n.Versions[0].WCET
	var sum float64
	var cnt int
	for _, t := range w {
		if t > 0 {
			sum += t
			cnt++
		}
	}
	if cnt == 0 || sum == 0 {
		return 0
	}
	return float64(cnt) / sum
}

// Platform is the set of available computation node types plus the bus
// characteristics used to derive worst-case message transmission times.
type Platform struct {
	Nodes []Node
	Bus   BusSpec
}

// BusSpec characterizes the fault-tolerant communication bus (the paper
// assumes a TTP-like protocol, so communications themselves never fail and
// are described by worst-case transmission times only).
type BusSpec struct {
	// SlotLen is the length in milliseconds of one TDMA slot; each node
	// owns one slot per round and transmits at most one message per slot.
	SlotLen float64
	// MaxMsgBytes is the largest message that fits in one slot. Zero
	// means unlimited.
	MaxMsgBytes int
}

// Validate checks the structural invariants of the platform against an
// application with numProcs processes: dense node IDs, dense ascending
// hardening levels starting at the first version's level, table sizes,
// positive WCETs, failure probabilities in [0,1), cost strictly increasing
// and WCET non-decreasing and failure probability non-increasing with the
// hardening level (hardening costs money, degrades performance, improves
// reliability — Section 1).
func (p *Platform) Validate(numProcs int) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("platform: no computation nodes")
	}
	if p.Bus.SlotLen < 0 {
		return fmt.Errorf("platform: negative bus slot length %v", p.Bus.SlotLen)
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("platform: node %q has ID %d, want dense ID %d", n.Name, n.ID, i)
		}
		if len(n.Versions) == 0 {
			return fmt.Errorf("platform: node %q has no h-versions", n.Name)
		}
		for vi := range n.Versions {
			v := &n.Versions[vi]
			if v.Level != n.Versions[0].Level+vi {
				return fmt.Errorf("platform: node %q h-version %d has level %d, want dense ascending levels", n.Name, vi, v.Level)
			}
			if len(v.WCET) != numProcs || len(v.FailProb) != numProcs {
				return fmt.Errorf("platform: node %q level %d tables sized %d/%d, want %d", n.Name, v.Level, len(v.WCET), len(v.FailProb), numProcs)
			}
			if v.Cost <= 0 {
				return fmt.Errorf("platform: node %q level %d has non-positive cost %v", n.Name, v.Level, v.Cost)
			}
			for pid := 0; pid < numProcs; pid++ {
				if v.WCET[pid] <= 0 || math.IsNaN(v.WCET[pid]) || math.IsInf(v.WCET[pid], 0) {
					return fmt.Errorf("platform: node %q level %d WCET[%d] = %v, want positive finite", n.Name, v.Level, pid, v.WCET[pid])
				}
				if !(v.FailProb[pid] >= 0 && v.FailProb[pid] < 1) {
					return fmt.Errorf("platform: node %q level %d FailProb[%d] = %v, want in [0,1)", n.Name, v.Level, pid, v.FailProb[pid])
				}
			}
			if vi > 0 {
				prev := &n.Versions[vi-1]
				if v.Cost <= prev.Cost {
					return fmt.Errorf("platform: node %q cost not increasing at level %d", n.Name, v.Level)
				}
				for pid := 0; pid < numProcs; pid++ {
					if v.WCET[pid] < prev.WCET[pid] {
						return fmt.Errorf("platform: node %q WCET[%d] decreases at level %d", n.Name, pid, v.Level)
					}
					if v.FailProb[pid] > prev.FailProb[pid] {
						return fmt.Errorf("platform: node %q FailProb[%d] increases at level %d", n.Name, pid, v.Level)
					}
				}
			}
		}
	}
	return nil
}

// TransmissionTime returns the worst-case time in milliseconds to transmit
// a message of the given size over the bus, ignoring slot-table alignment
// (one slot per message). The TDMA scheduler in internal/ttp refines this
// with actual slot positions.
func (b BusSpec) TransmissionTime(e appmodel.Edge) float64 {
	return b.SlotLen
}

// MessageFits reports whether the message fits into one TDMA slot.
func (b BusSpec) MessageFits(e appmodel.Edge) bool {
	return b.MaxMsgBytes == 0 || e.Size <= b.MaxMsgBytes
}
