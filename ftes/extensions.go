package ftes

// This file exports the extensions built on top of the paper's core
// contribution: checkpointing and active replication (the other software
// fault-tolerance policies of the authors' companion work), the WCET
// analysis substrate, and the visualization helpers.

import (
	"errors"
	"io"

	"repro/internal/appmodel"
	"repro/internal/checkpoint"
	"repro/internal/dot"
	"repro/internal/execsim"
	"repro/internal/gantt"
	"repro/internal/multirate"
	"repro/internal/policyopt"
	"repro/internal/replication"
	"repro/internal/wcetan"
)

// Checkpointing (recovery by re-executing one segment instead of the
// whole process).
type (
	// CheckpointOverheads are the χ (save) and α (detection) overheads.
	CheckpointOverheads = checkpoint.Overheads
	// CheckpointPlan holds per-process segment counts and the derived
	// scheduler overrides.
	CheckpointPlan = checkpoint.Plan
	// CheckpointSolution is one evaluated checkpointing configuration.
	CheckpointSolution = policyopt.Solution
)

// OptimalSegments returns the segment count minimizing the worst-case
// execution time under k faults (closed form n⁰ = √(k·t/(χ+α))).
func OptimalSegments(t float64, k int, o CheckpointOverheads, mu float64, maxN int) int {
	return checkpoint.OptimalSegments(t, k, o, mu, maxN)
}

// EvaluateCheckpointing analyses and schedules a mapped application under
// checkpointed recovery with shared slack: the policy evaluation with
// every process on checkpointing. maxSegments bounds the segment counts
// (0 = 8).
func EvaluateCheckpointing(app *Application, ar *Architecture, mapping []int, goal Goal, o CheckpointOverheads, bus Bus, maxSegments int) (*CheckpointSolution, error) {
	return policyopt.Evaluate(policyopt.Problem{
		App: app, Arch: ar, Mapping: mapping, Goal: goal,
		Overheads: o, Bus: bus, MaxSegments: maxSegments,
	}, policyopt.NewAssignment(app.NumProcesses(), policyopt.Checkpointing, nil))
}

// Active replication (a process succeeds if any replica succeeds).
type (
	// ReplicaAssignment maps replicated processes to their replica nodes.
	ReplicaAssignment = replication.Assignment
	// ReplicationSolution is one evaluated replication configuration.
	ReplicationSolution = policyopt.Solution
)

// ReplicationProblem bundles a replication-aware evaluation.
type ReplicationProblem struct {
	App  *Application
	Arch *Architecture
	// Mapping[i] is the node of process i (for replicated processes: the
	// primary replica's node, which must equal Replicas[i][0]).
	Mapping []int
	// Replicas assigns replica node sets to replicated processes.
	Replicas ReplicaAssignment
	Goal     Goal
	Bus      Bus
	// MaxK caps re-executions per node (0 = the default).
	MaxK int
}

// EvaluateReplication analyses and schedules a replication configuration:
// the policy evaluation with the replicated processes on replication and
// every other process on re-execution.
func EvaluateReplication(p ReplicationProblem) (*ReplicationSolution, error) {
	if p.App == nil {
		return nil, errors.New("ftes: nil application")
	}
	return policyopt.Evaluate(policyopt.Problem{
		App: p.App, Arch: p.Arch, Mapping: p.Mapping, Goal: p.Goal,
		Bus: p.Bus, MaxK: p.MaxK,
	}, policyopt.NewAssignment(p.App.NumProcesses(), policyopt.ReExecution, p.Replicas))
}

// WCET analysis substrate (structured programs → worst-case execution
// times and failure probabilities).
type (
	// WCETNode is a structured program fragment.
	WCETNode = wcetan.Node
	// WCETProgram is a structured program with a worst-case cycle count.
	WCETProgram = wcetan.Program
	// WCETBlock is a straight-line basic block.
	WCETBlock = wcetan.Block
	// WCETSeq is sequential composition.
	WCETSeq = wcetan.Seq
	// WCETBranch is a multi-way conditional (worst alternative counts).
	WCETBranch = wcetan.Branch
	// WCETLoop is a loop with a flow-annotated bound.
	WCETLoop = wcetan.Loop
	// WCETNodeSpec parameterizes BuildWCETNode.
	WCETNodeSpec = wcetan.NodeSpec
)

// BuildWCETNode analyses the programs and assembles a platform node with
// per-level WCET and failure-probability tables.
func BuildWCETNode(spec WCETNodeSpec, programs []WCETProgram) (*Node, error) {
	return wcetan.BuildNode(spec, programs)
}

// Visualization.
type (
	// GanttChart renders a schedule as an ASCII Gantt chart.
	GanttChart = gantt.Chart
	// DotOptions controls Graphviz export.
	DotOptions = dot.Options
)

// WriteDot emits the application's task graphs as a Graphviz DOT digraph,
// optionally decorated with a mapping.
func WriteDot(w io.Writer, app *appmodel.Application, opts dot.Options) error {
	return dot.Write(w, app, opts)
}

// Execution simulation (discrete-event replay under fault injection).
type (
	// SimInput configures one simulated iteration.
	SimInput = execsim.Input
	// SimResult is the outcome of one simulated iteration.
	SimResult = execsim.Result
	// SimCampaign runs many iterations with random fault patterns.
	SimCampaign = execsim.Campaign
	// SimCampaignResult aggregates a campaign.
	SimCampaignResult = execsim.CampaignResult
)

// Simulate replays one application iteration under a concrete fault
// pattern.
func Simulate(in SimInput) (*SimResult, error) { return execsim.Run(in) }

// Policy assignment (per-process choice among re-execution,
// checkpointing and replication).
type (
	// FTPolicy identifies a fault-tolerance mechanism.
	FTPolicy = policyopt.Policy
	// PolicyProblem bundles the policy-assignment inputs.
	PolicyProblem = policyopt.Problem
	// PolicyAssignment is a complete per-process assignment.
	PolicyAssignment = policyopt.Assignment
	// PolicySolution is one evaluated assignment.
	PolicySolution = policyopt.Solution
)

// Fault-tolerance policies.
const (
	// PolicyReExecution is the paper's whole-process re-execution.
	PolicyReExecution = policyopt.ReExecution
	// PolicyCheckpointing re-executes only the failed segment.
	PolicyCheckpointing = policyopt.Checkpointing
	// PolicyReplication runs the process on several nodes.
	PolicyReplication = policyopt.Replication
)

// EvaluatePolicies analyses and schedules one policy assignment.
func EvaluatePolicies(p PolicyProblem, a *PolicyAssignment) (*PolicySolution, error) {
	return policyopt.Evaluate(p, a)
}

// OptimizePolicies greedily optimizes the policy assignment for
// worst-case schedule length.
func OptimizePolicies(p PolicyProblem) (*PolicySolution, error) {
	return policyopt.Optimize(p)
}

// Multi-rate applications (graphs with individual periods, analysed and
// scheduled over the hyperperiod).
type (
	// MultiRateSpec is an application plus one period per graph.
	MultiRateSpec = multirate.Spec
	// MultiRateUnrolled is the hyperperiod job set.
	MultiRateUnrolled = multirate.Unrolled
	// MultiRateSolution is one evaluated multi-rate deployment.
	MultiRateSolution = multirate.Solution
)

// UnrollMultiRate expands a multi-rate application over one hyperperiod.
func UnrollMultiRate(s *MultiRateSpec) (*MultiRateUnrolled, error) { return multirate.Unroll(s) }

// EvaluateMultiRate analyses and schedules a multi-rate deployment.
func EvaluateMultiRate(s *MultiRateSpec, ar *Architecture, mapping []int, goal Goal, bus Bus, maxK int) (*MultiRateSolution, error) {
	return multirate.Evaluate(s, ar, mapping, goal, bus, maxK)
}
