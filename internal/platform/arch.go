package platform

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/appmodel"
)

// Architecture is a selected subset of the platform's node types together
// with a chosen hardening level for each — the "AR" of the design strategy
// (Fig. 5). The design heuristics mutate Levels; Nodes is fixed for a given
// architecture candidate.
type Architecture struct {
	// Nodes are pointers into the Platform's node set, in a fixed order;
	// processes are mapped to indices of this slice.
	Nodes []*Node
	// Levels[j] is the hardening level currently selected for Nodes[j].
	Levels []int
}

// NewArchitecture returns an architecture over the given nodes with every
// node at its minimum hardening level.
func NewArchitecture(nodes []*Node) *Architecture {
	ar := &Architecture{Nodes: nodes, Levels: make([]int, len(nodes))}
	ar.SetMinHardening()
	return ar
}

// Clone returns a deep copy (the node pointers are shared; levels are
// copied).
func (ar *Architecture) Clone() *Architecture {
	cp := &Architecture{Nodes: make([]*Node, len(ar.Nodes)), Levels: make([]int, len(ar.Levels))}
	copy(cp.Nodes, ar.Nodes)
	copy(cp.Levels, ar.Levels)
	return cp
}

// SetMinHardening resets every node to its minimum hardening level
// (Fig. 5 line 5).
func (ar *Architecture) SetMinHardening() {
	for j, n := range ar.Nodes {
		ar.Levels[j] = n.MinLevel()
	}
}

// SetMaxHardening sets every node to its maximum hardening level (the MAX
// baseline strategy of Section 7).
func (ar *Architecture) SetMaxHardening() {
	for j, n := range ar.Nodes {
		ar.Levels[j] = n.MaxLevel()
	}
}

// Version returns the currently selected h-version of node j.
func (ar *Architecture) Version(j int) *HVersion {
	return ar.Nodes[j].Version(ar.Levels[j])
}

// View returns a single-level architecture over a derived process set,
// such as replica clones or hyperperiod jobs: on every node, derived
// process i takes the WCET and failure probability that the selected
// h-version gives its origin process origin[i]. It fails when a node's
// selected level has no h-version.
func (ar *Architecture) View(origin []appmodel.ProcID) (*Architecture, error) {
	nodes := make([]*Node, len(ar.Nodes))
	for j := range ar.Nodes {
		v := ar.Version(j)
		if v == nil {
			return nil, fmt.Errorf("platform: node %d has no selected version", j)
		}
		w := make([]float64, len(origin))
		fp := make([]float64, len(origin))
		for pid, orig := range origin {
			w[pid] = v.WCET[orig]
			fp[pid] = v.FailProb[orig]
		}
		nodes[j] = &Node{
			ID:   NodeID(j),
			Name: ar.Nodes[j].Name,
			Versions: []HVersion{{
				Level:    1,
				Cost:     v.Cost,
				WCET:     w,
				FailProb: fp,
			}},
		}
	}
	return NewArchitecture(nodes), nil
}

// Cost returns the total cost of the selected h-versions (the objective
// minimized by the design strategy).
func (ar *Architecture) Cost() float64 {
	var c float64
	for j := range ar.Nodes {
		c += ar.Version(j).Cost
	}
	return c
}

// MinCost returns the cost of the architecture with all nodes at minimum
// hardening — the lower bound used for pruning (Fig. 5 line 6).
func (ar *Architecture) MinCost() float64 {
	var c float64
	for _, n := range ar.Nodes {
		c += n.Version(n.MinLevel()).Cost
	}
	return c
}

// Speed returns the summed node speeds, the measure by which the design
// strategy orders candidate architectures ("fastest" first).
func (ar *Architecture) Speed() float64 {
	var s float64
	for _, n := range ar.Nodes {
		s += n.Speed()
	}
	return s
}

// CanRaise reports whether node j has a higher hardening level available.
func (ar *Architecture) CanRaise(j int) bool {
	return ar.Levels[j] < ar.Nodes[j].MaxLevel()
}

// CanLower reports whether node j has a lower hardening level available.
func (ar *Architecture) CanLower(j int) bool {
	return ar.Levels[j] > ar.Nodes[j].MinLevel()
}

// String renders the architecture as e.g. "{N1^2, N2^2} cost=72".
func (ar *Architecture) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for j, n := range ar.Nodes {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s^%d", n.Name, ar.Levels[j])
	}
	fmt.Fprintf(&sb, "} cost=%g", ar.Cost())
	return sb.String()
}

// Enumerator yields the candidate architectures of a platform in the order
// explored by DesignStrategy: for each node count n, all size-n subsets of
// the available node types, fastest (largest summed speed) first.
type Enumerator struct {
	platform *Platform
	// subsets[n] caches the ordered subsets of size n (as index slices).
	subsets map[int][][]int
}

// NewEnumerator returns an Enumerator over the platform's nodes.
func NewEnumerator(p *Platform) *Enumerator {
	return &Enumerator{platform: p, subsets: make(map[int][][]int)}
}

// MaxNodes returns the number of available node types |N|.
func (e *Enumerator) MaxNodes() int { return len(e.platform.Nodes) }

// Count returns the number of size-n architectures.
func (e *Enumerator) Count(n int) int { return len(e.ordered(n)) }

// Arch returns the i-th fastest architecture with n nodes (i is 0-based),
// at minimum hardening, or nil when i is out of range. Arch(n, 0)
// implements SelectArch(N, n); successive i implement SelectNextArch.
func (e *Enumerator) Arch(n, i int) *Architecture {
	subs := e.ordered(n)
	if i < 0 || i >= len(subs) {
		return nil
	}
	nodes := make([]*Node, n)
	for j, idx := range subs[i] {
		nodes[j] = &e.platform.Nodes[idx]
	}
	return NewArchitecture(nodes)
}

func (e *Enumerator) ordered(n int) [][]int {
	if subs, ok := e.subsets[n]; ok {
		return subs
	}
	if n < 1 || n > len(e.platform.Nodes) {
		e.subsets[n] = nil
		return nil
	}
	var subs [][]int
	cur := make([]int, 0, n)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == n {
			subs = append(subs, append([]int(nil), cur...))
			return
		}
		for i := start; i < len(e.platform.Nodes); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	speed := func(sub []int) float64 {
		var s float64
		for _, idx := range sub {
			s += e.platform.Nodes[idx].Speed()
		}
		return s
	}
	sort.SliceStable(subs, func(a, b int) bool { return speed(subs[a]) > speed(subs[b]) })
	e.subsets[n] = subs
	return subs
}
