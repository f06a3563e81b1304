// Package replication extends the framework with active replication, the
// other software fault-tolerance policy of the authors' companion work
// (reference [15] of the paper) and of the related approaches the paper
// surveys (Girault et al. [5], Xie et al. [20]).
//
// An actively replicated process executes simultaneously on several
// computation nodes. It delivers a result as long as at least one replica
// executes fault-free, so it needs no re-execution and contributes no
// recovery slack; the price is the extra processor time and bus traffic
// of the replicas. Under the fail-silence assumption the consumers of a
// replicated process must, in the worst case, wait for the slowest
// replica (the only fault-free one may be the last to finish).
//
// Analytically the system failure probability becomes
//
//	Pr(fail) = 1 − (1 − Pr(∪_j f > k_j over re-executed processes))
//	             · Π over replicated processes (1 − Π over replicas p)
//
// where the per-node f-fault analysis of package sfp runs over the
// non-replicated processes only, and a replicated process fails the
// system exactly when all of its replicas fail in the same iteration.
//
// This package validates and expands replica assignments; the analysis
// and scheduling of a replicated application is policyopt.Evaluate with
// the replicated processes on Replication and the rest on ReExecution.
package replication

import (
	"fmt"
	"sort"

	"repro/internal/appmodel"
	"repro/internal/platform"
)

// Assignment maps each replicated process to the architecture nodes its
// replicas run on (at least two nodes, all distinct). Processes absent
// from the map use re-execution on their mapped node as usual.
type Assignment map[appmodel.ProcID][]int

// Problem is a replication configuration: a mapped application and the
// replica nodes of its replicated processes.
type Problem struct {
	App  *appmodel.Application
	Arch *platform.Architecture
	// Mapping[i] is the node of process i (for replicated processes: the
	// primary replica's node, which must equal Replicas[i][0]).
	Mapping []int
	// Replicas assigns replica node sets to replicated processes.
	Replicas Assignment
}

// Validate checks the replication assignment against the mapping.
func (p *Problem) Validate() error {
	if p.App == nil || p.Arch == nil {
		return fmt.Errorf("replication: nil application or architecture")
	}
	if len(p.Mapping) != p.App.NumProcesses() {
		return fmt.Errorf("replication: mapping covers %d of %d processes", len(p.Mapping), p.App.NumProcesses())
	}
	for pid, nodes := range p.Replicas {
		if int(pid) < 0 || int(pid) >= p.App.NumProcesses() {
			return fmt.Errorf("replication: unknown process %d", pid)
		}
		if len(nodes) < 2 {
			return fmt.Errorf("replication: process %d has %d replicas, want at least 2", pid, len(nodes))
		}
		seen := make(map[int]bool)
		for _, j := range nodes {
			if j < 0 || j >= len(p.Arch.Nodes) {
				return fmt.Errorf("replication: process %d replica on invalid node %d", pid, j)
			}
			if seen[j] {
				return fmt.Errorf("replication: process %d has two replicas on node %d", pid, j)
			}
			seen[j] = true
		}
		if p.Mapping[pid] != nodes[0] {
			return fmt.Errorf("replication: process %d mapped to node %d but primary replica on node %d",
				pid, p.Mapping[pid], nodes[0])
		}
	}
	return nil
}

// Expand clones every replicated process onto its replica nodes: the
// original keeps its ID on the primary node; clones are appended. Clones
// inherit all incoming edges, and all outgoing edges are duplicated from
// every clone so that consumers wait for the slowest replica. It returns
// the expanded application, its mapping, and the original ProcID of every
// expanded process (identity for originals).
func Expand(p Problem) (*appmodel.Application, []int, []appmodel.ProcID, error) {
	src := p.App
	exp := &appmodel.Application{
		Name:   src.Name + "+replicas",
		Period: src.Period,
	}
	mapping := make([]int, 0, src.NumProcesses())
	replicaOf := make([]appmodel.ProcID, 0, src.NumProcesses())
	graphOf := src.GraphOf()
	exp.Graphs = make([]appmodel.Graph, len(src.Graphs))
	for gi := range src.Graphs {
		exp.Graphs[gi] = appmodel.Graph{
			Name:     src.Graphs[gi].Name,
			Deadline: src.Graphs[gi].Deadline,
		}
	}
	addProc := func(orig appmodel.ProcID, name string, node int) appmodel.ProcID {
		id := appmodel.ProcID(len(exp.Procs))
		exp.Procs = append(exp.Procs, appmodel.Process{ID: id, Name: name, Mu: src.Procs[orig].Mu})
		gi := graphOf[orig]
		exp.Graphs[gi].Procs = append(exp.Graphs[gi].Procs, id)
		mapping = append(mapping, node)
		replicaOf = append(replicaOf, orig)
		return id
	}
	// Originals first, keeping IDs stable.
	for pid := 0; pid < src.NumProcesses(); pid++ {
		addProc(appmodel.ProcID(pid), src.Procs[pid].Name, p.Mapping[pid])
	}
	// Clones.
	clones := make(map[appmodel.ProcID][]appmodel.ProcID) // orig -> all instances
	for pid := 0; pid < src.NumProcesses(); pid++ {
		clones[appmodel.ProcID(pid)] = []appmodel.ProcID{appmodel.ProcID(pid)}
	}
	for _, orig := range sortedPids(p.Replicas) {
		for r, node := range p.Replicas[orig] {
			if r == 0 {
				continue // primary is the original
			}
			name := fmt.Sprintf("%s/r%d", src.Procs[orig].Name, r+1)
			id := addProc(orig, name, node)
			clones[orig] = append(clones[orig], id)
		}
	}
	// Edges: every (src instance, dst instance) pair.
	addEdge := func(name string, from, to appmodel.ProcID, size int, gi int) {
		id := appmodel.EdgeID(len(exp.Edges))
		exp.Edges = append(exp.Edges, appmodel.Edge{ID: id, Name: name, Src: from, Dst: to, Size: size})
		exp.Graphs[gi].Edges = append(exp.Graphs[gi].Edges, id)
	}
	for _, e := range src.Edges {
		gi := graphOf[e.Src]
		for si, from := range clones[e.Src] {
			for di, to := range clones[e.Dst] {
				name := e.Name
				if si > 0 || di > 0 {
					name = fmt.Sprintf("%s/%d.%d", e.Name, si, di)
				}
				addEdge(name, from, to, e.Size, gi)
			}
		}
	}
	if err := exp.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("replication: expanded application invalid: %w", err)
	}
	return exp, mapping, replicaOf, nil
}

// sortedPids returns the assignment's keys in ascending order for
// deterministic iteration.
func sortedPids(a Assignment) []appmodel.ProcID {
	pids := make([]appmodel.ProcID, 0, len(a))
	for pid := range a {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}
