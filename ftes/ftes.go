// Package ftes (fault-tolerant embedded systems) is the public API of the
// library: a design-optimization framework for hard real-time embedded
// systems that tolerates transient faults by combining selective hardware
// hardening with software process re-execution, reproducing
//
//	V. Izosimov, I. Polian, P. Pop, P. Eles, Z. Peng.
//	"Analysis and Optimization of Fault-Tolerant Embedded Systems with
//	Hardened Processors", DATE 2009.
//
// # Overview
//
// An application is a set of acyclic task graphs (build one with
// NewBuilder). It runs on a bus-based platform whose computation nodes are
// each available in several hardened versions (h-versions) trading cost
// and speed for reliability. Given a reliability goal ρ = 1 − γ per hour
// and hard deadlines, Run selects the architecture, hardening levels,
// process mapping, per-node re-execution counts and static schedule with
// the lowest total cost:
//
//	app := ... // ftes.NewBuilder
//	pl  := ... // ftes.Platform with nodes and h-versions
//	res, err := ftes.Run(app, pl, ftes.Options{
//		Goal: ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour},
//	})
//
// The underlying pieces are exported too: the system failure probability
// analysis of the paper's Appendix A (NewReliabilityAnalysis), the static
// scheduler with shared recovery slack (BuildSchedule), the
// hardening/re-execution trade-off (RedundancyOpt), the tabu-search
// mapping optimizer (OptimizeMapping), the synthetic workload generator
// of the experimental evaluation (Generate), and a Monte-Carlo
// fault-injection campaign to cross-validate the analysis (Campaign).
//
// The operational layers (tracing, metrics, live introspection, crash-safe
// journals and the job daemon) are reached through the binaries:
// cmd/paperbench and cmd/ftesd.
package ftes

import (
	"context"

	"repro/internal/appmodel"
	"repro/internal/core"
	"repro/internal/evalengine"
	"repro/internal/faultsim"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// Hour is one hour in milliseconds — the reliability-goal time unit τ used
// throughout the paper.
const Hour = 3.6e6

// Application model.
type (
	// Application is a set of acyclic task graphs with a period.
	Application = appmodel.Application
	// Process is one non-preemptable node of a task graph.
	Process = appmodel.Process
	// Edge is a data dependency carrying a message.
	Edge = appmodel.Edge
	// Graph is one task graph with a hard deadline.
	Graph = appmodel.Graph
	// ProcID identifies a process.
	ProcID = appmodel.ProcID
	// EdgeID identifies an edge.
	EdgeID = appmodel.EdgeID
	// Builder incrementally constructs a valid Application.
	Builder = appmodel.Builder
)

// NewBuilder returns a Builder for an application with the given name.
func NewBuilder(name string) *Builder { return appmodel.NewBuilder(name) }

// Platform model.
type (
	// Platform is the set of available computation nodes plus the bus.
	Platform = platform.Platform
	// Node is a computation node type with its h-versions.
	Node = platform.Node
	// HVersion is one hardened version of a node.
	HVersion = platform.HVersion
	// BusSpec characterizes the TDMA bus.
	BusSpec = platform.BusSpec
	// Architecture is a selected node set with hardening levels.
	Architecture = platform.Architecture
	// NodeID identifies a node type.
	NodeID = platform.NodeID
)

// NewArchitecture returns an architecture over the given nodes at minimum
// hardening.
func NewArchitecture(nodes []*Node) *Architecture { return platform.NewArchitecture(nodes) }

// Reliability analysis (the paper's Appendix A).
type (
	// Goal is the reliability goal ρ = 1 − γ per time unit τ.
	Goal = sfp.Goal
	// ReliabilityAnalysis evaluates the system failure probability of a
	// deployment for varying re-execution counts.
	ReliabilityAnalysis = sfp.Analysis
	// ReliabilityNode is the per-node part of the analysis.
	ReliabilityNode = sfp.Node
)

// DefaultMaxK caps the re-executions the analysis considers per node.
const DefaultMaxK = sfp.DefaultMaxK

// NewReliabilityAnalysis builds the SFP analysis from per-node process
// failure probability sets (nodeProbs[j] lists p_ijh for the processes
// mapped on node j).
func NewReliabilityAnalysis(nodeProbs [][]float64, period float64, maxK int) (*ReliabilityAnalysis, error) {
	return sfp.NewAnalysis(nodeProbs, period, maxK)
}

// NewReliabilityNode builds the analysis for a single node.
func NewReliabilityNode(probs []float64, maxK int) (*ReliabilityNode, error) {
	return sfp.NewNode(probs, maxK)
}

// SystemFailureProb combines per-node failure probabilities into the
// system failure probability per application iteration (formula 5).
func SystemFailureProb(nodeFail []float64) float64 { return sfp.SystemFailureProb(nodeFail) }

// Reliability raises the per-iteration survival probability to the τ/T
// iterations of the time unit (formula 6).
func Reliability(sysFail, period, tau float64) float64 { return sfp.Reliability(sysFail, period, tau) }

// Scheduling.
type (
	// Schedule is a static schedule with worst-case completion times.
	Schedule = sched.Schedule
	// ScheduleInput bundles the scheduler inputs.
	ScheduleInput = sched.Input
	// SlackModel selects the recovery-slack accounting.
	SlackModel = sched.SlackModel
	// Bus abstracts the message medium for the scheduler.
	Bus = sched.Bus
	// TDMABus is the TTP-like time-triggered bus.
	TDMABus = ttp.Bus
	// InstantBus delivers messages with zero latency.
	InstantBus = ttp.InstantBus
)

// Slack models.
const (
	// SlackShared is the paper's shared recovery slack.
	SlackShared = sched.SlackShared
	// SlackPerProcess is the non-shared, more pessimistic baseline.
	SlackPerProcess = sched.SlackPerProcess
)

// BuildSchedule runs the list scheduler with recovery slack.
func BuildSchedule(in ScheduleInput) (*Schedule, error) { return sched.Build(in) }

// NewTDMABus returns a TDMA bus with one slot per node per round.
func NewTDMABus(numNodes int, slotLen float64) *TDMABus { return ttp.NewBus(numNodes, slotLen) }

// Redundancy optimization (Section 6.3).
type (
	// RedundancyProblem bundles the inputs of the hardening/re-execution
	// trade-off.
	RedundancyProblem = redundancy.Problem
	// RedundancySolution is one evaluated configuration.
	RedundancySolution = redundancy.Solution
)

// RedundancyOpt runs the hardening/re-execution trade-off for a fixed
// mapping.
func RedundancyOpt(p RedundancyProblem) (*RedundancySolution, error) {
	return redundancy.RedundancyOpt(p)
}

// ReExecutionOpt assigns per-node re-execution counts for fixed hardening
// levels, greedily guided by the largest reliability increase.
func ReExecutionOpt(app *Application, ar *Architecture, procMapping []int, levels []int, goal Goal, maxK int) ([]int, bool, error) {
	return redundancy.ReExecutionOpt(app, ar, procMapping, levels, goal, maxK)
}

// Mapping optimization (Section 6.2).
type (
	// MappingParams tunes the tabu search.
	MappingParams = mapping.Params
	// MappingResult is the best mapping found with its solution.
	MappingResult = mapping.Result
	// MappingCostFunction selects the mapping objective.
	MappingCostFunction = mapping.CostFunction
)

// Mapping cost functions.
const (
	// MinimizeScheduleLength optimizes the worst-case schedule length.
	MinimizeScheduleLength = mapping.ScheduleLength
	// MinimizeArchitectureCost optimizes the architecture cost.
	MinimizeArchitectureCost = mapping.ArchitectureCost
)

// Evaluation engine.
type (
	// Evaluator is the stateful, memoizing evaluation engine shared by the
	// mapping and design-strategy layers. One Evaluator serves one
	// goroutine. The solutions it serves carry the schedule length but no
	// schedule; Evaluator.Schedule rebuilds the schedule of one of them.
	Evaluator = evalengine.Evaluator
	// EvaluatorStats are the engine's instrumentation counters.
	EvaluatorStats = evalengine.Stats
)

// NewEvaluator returns an evaluation engine bound to the given problem
// (the problem's Mapping field is ignored; mappings are supplied per
// call).
func NewEvaluator(p RedundancyProblem) *Evaluator { return evalengine.New(p) }

// OptimizeMapping runs the tabu-search mapping optimization through a
// fresh evaluation engine. To reuse caches across calls, construct an
// Evaluator with NewEvaluator and call mapping.Optimize via OptimizeMappingWith.
func OptimizeMapping(p RedundancyProblem, initial []int, cf MappingCostFunction, params MappingParams) (*MappingResult, error) {
	return mapping.Optimize(evalengine.New(p), initial, cf, params)
}

// OptimizeMappingWith runs the tabu-search mapping optimization through
// the given evaluation engine, reusing whatever its caches already hold.
func OptimizeMappingWith(ev *Evaluator, initial []int, cf MappingCostFunction, params MappingParams) (*MappingResult, error) {
	return mapping.Optimize(ev, initial, cf, params)
}

// OptimizeMappingContext is OptimizeMappingWith under a context: the
// search consults ctx between tabu iterations and, once it is done,
// returns the best mapping found so far together with an error wrapping
// ErrCanceled. The partial result is deterministic for a given
// cancellation point.
func OptimizeMappingContext(ctx context.Context, ev *Evaluator, initial []int, cf MappingCostFunction, params MappingParams) (*MappingResult, error) {
	return mapping.OptimizeContext(ctx, ev, initial, cf, params)
}

// Design strategy (Fig. 5).
type (
	// Options configures a design run.
	Options = core.Options
	// Result is the outcome of a design run.
	Result = core.Result
	// Strategy selects OPT, MIN or MAX.
	Strategy = core.Strategy
)

// Strategies.
const (
	// OPT is the paper's full design optimization.
	OPT = core.OPT
	// MIN uses minimum hardening with software-only fault tolerance.
	MIN = core.MIN
	// MAX uses maximum hardening everywhere.
	MAX = core.MAX
)

// Run executes a design strategy and returns the cheapest feasible
// implementation.
func Run(app *Application, pl *Platform, opts Options) (*Result, error) {
	return core.Run(app, pl, opts)
}

// RunContext is Run under a context. Cancellation is cooperative: the
// run consults ctx between candidate architectures (never inside the
// bit-identical evaluation arithmetic) and, once ctx is done, returns
// the best complete solution found so far together with an error
// wrapping ErrCanceled; the interrupted candidate is discarded whole.
// A panic in a worker goroutine surfaces as a *PanicError instead of
// crashing the process.
func RunContext(ctx context.Context, app *Application, pl *Platform, opts Options) (*Result, error) {
	return core.RunContext(ctx, app, pl, opts)
}

// PanicError is a panic recovered from a worker goroutine, carrying the
// panic value and stack.
type PanicError = runctl.PanicError

// ErrCanceled is wrapped by every error a canceled run returns; test
// with errors.Is. The underlying context error (context.Canceled or
// context.DeadlineExceeded) is wrapped too.
var ErrCanceled = runctl.ErrCanceled

// Synthetic workloads (Section 7).
type (
	// GenConfig parameterizes the synthetic generator.
	GenConfig = taskgen.Config
	// Instance is a generated application/platform/goal triple.
	Instance = taskgen.Instance
)

// DefaultGenConfig returns the paper's experimental parameterization.
func DefaultGenConfig(seed int64, n int, ser, hpdPercent float64) GenConfig {
	return taskgen.DefaultConfig(seed, n, ser, hpdPercent)
}

// Generate builds one reproducible synthetic instance.
func Generate(cfg GenConfig) (*Instance, error) { return taskgen.Generate(cfg) }

// Fault injection substrate.
type (
	// Campaign is a Monte-Carlo fault-injection campaign.
	Campaign = faultsim.Campaign
	// CampaignResult summarizes a campaign.
	CampaignResult = faultsim.Result
)

// DeriveFailProb computes a process failure probability from the raw SER
// per clock cycle, the process length and the hardening level.
func DeriveFailProb(wcetMs, cyclesPerMs, serPerCycle float64, level int, reductionPerLevel float64) float64 {
	return faultsim.DeriveFailProb(wcetMs, cyclesPerMs, serPerCycle, level, reductionPerLevel)
}
