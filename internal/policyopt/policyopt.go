// Package policyopt assigns a software fault-tolerance policy to every
// process — the paper's re-execution, segment-level checkpointing, or
// active replication — and optimizes the assignment for worst-case
// schedule length. This is the "fault tolerance policy assignment"
// problem of the authors' companion work (Pop et al., IEEE TVLSI 2009,
// reference [15] of the paper), layered over this reproduction's SFP
// analysis and shared-slack scheduler.
//
// The unified evaluation composes the mechanisms:
//
//   - replicated processes are cloned onto their replica nodes, leave the
//     per-node re-execution analysis and contribute an all-replicas-fail
//     term to the system failure probability;
//   - the remaining processes recover by re-execution, with the
//     shared-slack-aware checkpoint planner deciding which of them are
//     segmented (a plain re-execution is a one-segment plan);
//   - the re-execution budgets k_j are assigned by the paper's greedy
//     ReExecutionOpt (redundancy.ReExecutionOptAnalysis) over the segment
//     analysis, with the all-replicas-fail terms as fixed failure terms,
//     and the schedule is built with per-process recovery costs (one
//     segment + μ for checkpointed processes, zero for replicas).
//
// A uniform assignment gives the single-mechanism evaluations: all
// Checkpointing is the checkpointing extension of E12, and replicated
// processes over ReExecution are the replication extension of E13.
//
// Optimize starts from the all-checkpointing assignment and greedily
// replicates, one at a time, the process whose replication most shortens
// the worst-case schedule, as long as it helps; checkpointing is always
// applied where profitable by the planner.
package policyopt

import (
	"fmt"
	"slices"

	"repro/internal/appmodel"
	"repro/internal/checkpoint"
	"repro/internal/platform"
	"repro/internal/prob"
	"repro/internal/redundancy"
	"repro/internal/replication"
	"repro/internal/sched"
	"repro/internal/sfp"
)

// Policy identifies the fault-tolerance mechanism of one process.
type Policy int

const (
	// ReExecution is the paper's whole-process re-execution.
	ReExecution Policy = iota
	// Checkpointing re-executes only the failed segment.
	Checkpointing
	// Replication runs the process on several nodes simultaneously.
	Replication
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case ReExecution:
		return "re-execution"
	case Checkpointing:
		return "checkpointing"
	case Replication:
		return "replication"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Problem bundles the inputs of the policy assignment.
type Problem struct {
	App     *appmodel.Application
	Arch    *platform.Architecture
	Mapping []int
	Goal    sfp.Goal
	// Overheads are the checkpointing overheads; zero disables
	// checkpointing benefit (segments stay at 1).
	Overheads checkpoint.Overheads
	// Bus carries cross-node messages (nil = instantaneous). The bus is
	// Reset before every schedule evaluation.
	Bus sched.Bus
	// MaxSegments bounds checkpoint counts (0 = 8).
	MaxSegments int
	// MaxK caps re-executions per node (0 = sfp.DefaultMaxK).
	MaxK int
}

// Assignment is a complete policy assignment.
type Assignment struct {
	// Policies[i] is the mechanism of process i.
	Policies []Policy
	// Replicas holds the replica nodes of every Replication process.
	Replicas replication.Assignment
}

// NewAssignment assigns pol to every one of n processes except those in
// replicas, which are replicated on the listed nodes. All Checkpointing
// with no replicas is the checkpointing extension; ReExecution with
// replicas is the replication extension.
func NewAssignment(n int, pol Policy, replicas replication.Assignment) *Assignment {
	a := &Assignment{Policies: make([]Policy, n), Replicas: replicas}
	for pid := range a.Policies {
		a.Policies[pid] = pol
		if _, ok := replicas[appmodel.ProcID(pid)]; ok {
			a.Policies[pid] = Replication
		}
	}
	return a
}

// Solution is one evaluated assignment.
type Solution struct {
	Assignment *Assignment
	// Plan carries the segment counts of checkpointed processes (indexed
	// by original ProcID; replicas hold 1).
	Plan *checkpoint.Plan
	// Ks are the per-node re-execution budgets.
	Ks []int
	// Schedule is the static schedule of the expanded application (all
	// replicas placed). Original processes keep their IDs; replica clones
	// follow. It is built also when the goal is out of reach.
	Schedule *sched.Schedule
	// ReplicaOf maps expanded processes to original IDs.
	ReplicaOf   []appmodel.ProcID
	Reliable    bool
	Schedulable bool
	// SystemFailureProb is the per-iteration system failure probability
	// with Ks: the union of the per-node terms and the all-replicas-fail
	// terms.
	SystemFailureProb float64
}

// Feasible reports whether the solution is reliable and schedulable.
func (s *Solution) Feasible() bool { return s != nil && s.Reliable && s.Schedulable }

func (p *Problem) maxSegments() int {
	if p.MaxSegments > 0 {
		return p.MaxSegments
	}
	return 8
}

func (p *Problem) maxK() int {
	if p.MaxK > 0 {
		return p.MaxK
	}
	return sfp.DefaultMaxK
}

// Evaluate analyses and schedules one assignment.
func Evaluate(p Problem, a *Assignment) (*Solution, error) {
	if p.App == nil || p.Arch == nil {
		return nil, fmt.Errorf("policyopt: nil application or architecture")
	}
	// Every segment analysis below runs at the application period.
	ceiling, err := p.Goal.MaxSystemFailure(p.App.EffectivePeriod())
	if err != nil {
		return nil, err
	}
	n := p.App.NumProcesses()
	if len(p.Mapping) != n {
		return nil, fmt.Errorf("policyopt: mapping covers %d of %d processes", len(p.Mapping), n)
	}
	if len(a.Policies) != n {
		return nil, fmt.Errorf("policyopt: policies cover %d of %d processes", len(a.Policies), n)
	}
	for pid, pol := range a.Policies {
		_, repl := a.Replicas[appmodel.ProcID(pid)]
		if (pol == Replication) != repl {
			return nil, fmt.Errorf("policyopt: process %d policy %v inconsistent with replica set", pid, pol)
		}
	}

	// Expand replicas.
	rp := replication.Problem{
		App:      p.App,
		Arch:     p.Arch,
		Mapping:  p.Mapping,
		Replicas: a.Replicas,
	}
	if err := rp.Validate(); err != nil {
		return nil, err
	}
	expApp, expMapping, replicaOf, err := replication.Expand(rp)
	if err != nil {
		return nil, err
	}
	// The view checks that every node has a selected h-version before
	// anything below reads one.
	expArch, err := p.Arch.View(replicaOf)
	if err != nil {
		return nil, err
	}
	fixed := replicaFailures(p, a)

	// Fixed point between budgets and segment plans: segment failure
	// probabilities depend on the segment counts, and the planner's counts
	// on the budgets. The counts are insensitive to k beyond small values,
	// so a bounded number of rounds suffices.
	ks := make([]int, len(p.Arch.Nodes))
	var plan *checkpoint.Plan
	var analysis *sfp.Analysis
	reliable := false
	for round := 0; round < 4; round++ {
		if plan, err = planSegments(p, a, ks); err != nil {
			return nil, err
		}
		if analysis, err = segmentAnalysis(p, a, plan); err != nil {
			return nil, err
		}
		next, ok := redundancy.ReExecutionOptAnalysis(nil, analysis, ceiling, fixed)
		converged := slices.Equal(next, ks)
		ks, reliable = next, ok
		if !ok || converged {
			break
		}
	}
	fails := make([]float64, 0, len(analysis.Nodes)+len(fixed))
	for j, node := range analysis.Nodes {
		fails = append(fails, node.FailureProb(ks[j]))
	}
	fails = append(fails, fixed...)

	// Scheduler overrides over the expanded process set.
	extra := make([]float64, expApp.NumProcesses())
	recovery := make([]float64, expApp.NumProcesses())
	for pid := 0; pid < expApp.NumProcesses(); pid++ {
		orig := replicaOf[pid]
		if a.Policies[orig] == Replication {
			continue // replicas are never re-executed
		}
		extra[pid] = plan.ExtraExec[orig]
		recovery[pid] = plan.Recovery[orig]
	}
	s, err := sched.Build(sched.Input{
		App:       expApp,
		Arch:      expArch,
		Mapping:   expMapping,
		Ks:        ks,
		Bus:       p.Bus,
		ExtraExec: extra,
		Recovery:  recovery,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Assignment:        a,
		Plan:              plan,
		Ks:                ks,
		Schedule:          s,
		ReplicaOf:         replicaOf,
		Reliable:          reliable,
		Schedulable:       s.Schedulable(expApp),
		SystemFailureProb: sfp.SystemFailureProb(fails),
	}, nil
}

// planSegments runs the shared-slack checkpoint planner over the
// non-replicated processes only (replicated processes keep one segment).
func planSegments(p Problem, a *Assignment, ks []int) (*checkpoint.Plan, error) {
	plan, err := checkpoint.NewSharedSlackPlan(p.App, p.Arch, p.Mapping, ks, p.Overheads, p.maxSegments())
	if err != nil {
		return nil, err
	}
	for pid := range a.Policies {
		switch a.Policies[pid] {
		case Replication:
			plan.Segments[pid] = 1
			plan.ExtraExec[pid] = 0
			plan.Recovery[pid] = 0
		case ReExecution:
			// Undo any segmentation the planner chose: the process's
			// policy forbids checkpointing.
			if plan.Segments[pid] > 1 {
				plan.Segments[pid] = 1
				plan.ExtraExec[pid] = 0
				v := p.Arch.Version(p.Mapping[pid])
				plan.Recovery[pid] = checkpoint.RecoveryCost(v.WCET[pid], 1, p.App.Procs[pid].Mu)
			}
		}
	}
	return plan, nil
}

// segmentAnalysis builds the per-node SFP analysis over the executed
// segments of the non-replicated processes: a process of n segments
// contributes n segment failure probabilities on its node.
func segmentAnalysis(p Problem, a *Assignment, plan *checkpoint.Plan) (*sfp.Analysis, error) {
	nodeProbs := make([][]float64, len(p.Arch.Nodes))
	for pid := 0; pid < p.App.NumProcesses(); pid++ {
		if a.Policies[pid] == Replication {
			continue
		}
		j := p.Mapping[pid]
		segP := checkpoint.SegmentFailProb(p.Arch.Version(j).FailProb[pid], plan.Segments[pid])
		for s := 0; s < plan.Segments[pid]; s++ {
			nodeProbs[j] = append(nodeProbs[j], segP)
		}
	}
	return sfp.NewAnalysis(nodeProbs, p.App.EffectivePeriod(), p.maxK())
}

// replicaFailures returns the all-replicas-fail probability of every
// replicated process in ProcID order: the process fails the iteration
// exactly when each of its replicas fails.
func replicaFailures(p Problem, a *Assignment) []float64 {
	var fixed []float64
	for pid := 0; pid < p.App.NumProcesses(); pid++ {
		nodes, ok := a.Replicas[appmodel.ProcID(pid)]
		if !ok {
			continue
		}
		prod := 1.0
		for _, j := range nodes {
			prod *= p.Arch.Version(j).FailProb[pid]
		}
		fixed = append(fixed, prob.Clamp01(prob.CeilP(prod)))
	}
	return fixed
}

// Optimize greedily improves the policy assignment: starting from
// checkpointed re-execution everywhere, it repeatedly evaluates
// replicating each process on its least-loaded other node and keeps the
// single change that most reduces the worst-case schedule length (among
// reliable solutions), until no change helps. The number of replication
// candidates per round is bounded by the process count, so the search
// terminates after at most n improving rounds.
func Optimize(p Problem) (*Solution, error) {
	n := p.App.NumProcesses()
	cur := NewAssignment(n, Checkpointing, replication.Assignment{})
	best, err := Evaluate(p, cur)
	if err != nil {
		return nil, err
	}
	if len(p.Arch.Nodes) < 2 {
		return best, nil // replication needs a second node
	}
	for {
		var improved *Solution
		var improvedAsg *Assignment
		for pid := 0; pid < n; pid++ {
			if cur.Policies[pid] == Replication {
				continue
			}
			other := otherNode(p, pid)
			if other < 0 {
				continue
			}
			trial := cloneAssignment(cur)
			trial.Policies[pid] = Replication
			trial.Replicas[appmodel.ProcID(pid)] = []int{p.Mapping[pid], other}
			sol, err := Evaluate(p, trial)
			if err != nil {
				return nil, err
			}
			if !sol.Reliable {
				continue
			}
			if better(sol, best) && (improved == nil || better(sol, improved)) {
				improved, improvedAsg = sol, trial
			}
		}
		if improved == nil {
			return best, nil
		}
		best, cur = improved, improvedAsg
	}
}

// better ranks solutions: feasible beats infeasible, then reliable beats
// unreliable, then the shorter worst-case schedule wins.
func better(a, b *Solution) bool {
	if a.Feasible() != b.Feasible() {
		return a.Feasible()
	}
	if a.Reliable != b.Reliable {
		return a.Reliable
	}
	return a.Schedule.Length < b.Schedule.Length-1e-9
}

// otherNode picks the architecture node other than the process's own with
// the smallest total mapped WCET — the cheapest host for a replica.
func otherNode(p Problem, pid int) int {
	own := p.Mapping[pid]
	load := make([]float64, len(p.Arch.Nodes))
	for q := 0; q < p.App.NumProcesses(); q++ {
		load[p.Mapping[q]] += p.Arch.Version(p.Mapping[q]).WCET[q]
	}
	best, bestLoad := -1, 0.0
	for j := range p.Arch.Nodes {
		if j == own {
			continue
		}
		if best < 0 || load[j] < bestLoad {
			best, bestLoad = j, load[j]
		}
	}
	return best
}

func cloneAssignment(a *Assignment) *Assignment {
	cp := &Assignment{
		Policies: append([]Policy(nil), a.Policies...),
		Replicas: replication.Assignment{},
	}
	for pid, nodes := range a.Replicas {
		cp.Replicas[pid] = append([]int(nil), nodes...)
	}
	return cp
}
