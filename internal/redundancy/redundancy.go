// Package redundancy implements the hardening/re-execution trade-off
// heuristics of Section 6.3 of the paper:
//
//   - ReExecutionOpt assigns the number of re-executions k_j to each
//     computation node, starting from zero and greedily adding the
//     re-execution that yields the largest increase in system reliability
//     (the largest decrease of the SFP union) until the reliability goal ρ
//     is reached.
//
//   - RedundancyOpt decides the hardening levels: starting from the minimum
//     hardening, it greedily raises levels until the application becomes
//     schedulable, then iteratively lowers levels one node at a time, as
//     long as the application stays schedulable, keeping the cheapest
//     schedulable alternative.
//
// Both heuristics evaluate schedulability through the list scheduler of
// package sched and reliability through the SFP analysis of package sfp.
package redundancy

import (
	"fmt"

	"repro/internal/appmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sfp"
)

// Problem bundles the fixed inputs of the redundancy optimization: the
// application, the candidate architecture, the process mapping, the
// reliability goal, the bus and the slack accounting model.
type Problem struct {
	App     *appmodel.Application
	Arch    *platform.Architecture
	Mapping []int
	Goal    sfp.Goal
	// Bus carries cross-node messages during schedule evaluation; nil
	// means instantaneous messages.
	Bus sched.Bus
	// MaxK caps the re-executions per node; zero means sfp.DefaultMaxK.
	MaxK int
	// Model selects the recovery-slack accounting (default: the paper's
	// shared slack).
	Model sched.SlackModel
	// FixedLevels, when non-nil, disables the hardening optimization:
	// RedundancyOpt evaluates exactly these levels and only optimizes the
	// software re-executions. The MIN and MAX baseline strategies of the
	// paper's evaluation (Section 7) use this with the minimum/maximum
	// levels.
	FixedLevels []int
}

func (p *Problem) maxK() int {
	if p.MaxK > 0 {
		return p.MaxK
	}
	return sfp.DefaultMaxK
}

// Solution is one evaluated redundancy configuration.
type Solution struct {
	// Levels[j] is the hardening level of architecture node j.
	Levels []int
	// Ks[j] is the number of software re-executions on node j.
	Ks []int
	// Schedule is the static schedule built for this configuration.
	// Evaluate and RedundancyOpt fill it; solutions served by the
	// evaluation engine (package evalengine) leave it nil and carry only
	// Length, and the engine rebuilds the schedule on request.
	Schedule *sched.Schedule
	// Length is the worst-case schedule length SL of the configuration
	// (Schedule.Length whenever Schedule is set). The searches rank
	// candidates by it.
	Length float64
	// Cost is the architecture cost at these levels.
	Cost float64
	// Reliable reports whether the SFP analysis meets the goal with Ks.
	Reliable bool
	// Schedulable reports whether every process meets its deadline in the
	// worst case.
	Schedulable bool
}

// Feasible reports whether the solution is both reliable and schedulable.
func (s *Solution) Feasible() bool { return s != nil && s.Reliable && s.Schedulable }

// nodeProbs collects, for each architecture node at the given levels, the
// failure probabilities of the processes mapped on it.
func nodeProbs(app *appmodel.Application, ar *platform.Architecture, mapping []int, levels []int) ([][]float64, error) {
	probs := make([][]float64, len(ar.Nodes))
	for pid := range mapping {
		j := mapping[pid]
		if j < 0 || j >= len(ar.Nodes) {
			return nil, fmt.Errorf("redundancy: process %d mapped to invalid node %d", pid, j)
		}
		v := ar.Nodes[j].Version(levels[j])
		if v == nil {
			return nil, fmt.Errorf("redundancy: node %d has no h-version at level %d", j, levels[j])
		}
		probs[j] = append(probs[j], v.FailProb[pid])
	}
	return probs, nil
}

// ReExecutionOpt computes the per-node re-execution counts for the given
// hardening levels. It starts from k_j = 0 on every node and greedily adds
// one re-execution at a time on the node where it decreases the system
// failure probability the most, until the reliability goal is met. The
// returned flag is false when the goal cannot be met even with every node
// saturated at maxK re-executions (the caller then typically raises a
// hardening level instead).
func ReExecutionOpt(app *appmodel.Application, ar *platform.Architecture, mapping []int, levels []int, goal sfp.Goal, maxK int) ([]int, bool, error) {
	probs, err := nodeProbs(app, ar, mapping, levels)
	if err != nil {
		return nil, false, err
	}
	analysis, err := sfp.NewAnalysis(probs, app.EffectivePeriod(), maxK)
	if err != nil {
		return nil, false, err
	}
	return ReExecutionOptAnalysis(analysis, goal, maxK)
}

// ReExecutionOptAnalysis is ReExecutionOpt on a prebuilt SFP analysis. It
// lets callers that cache the per-node analyses (package evalengine) skip
// the combinatorial setup of sfp.NewAnalysis while running the exact same
// greedy k-assignment.
func ReExecutionOptAnalysis(analysis *sfp.Analysis, goal sfp.Goal, maxK int) ([]int, bool, error) {
	if err := goal.Validate(); err != nil {
		return nil, false, err
	}
	ks := make([]int, len(analysis.Nodes))
	fails := make([]float64, len(analysis.Nodes))
	for j, n := range analysis.Nodes {
		fails[j] = n.FailureProb(0)
	}
	// The goal test of Analysis.MeetsGoal, on the failure vector the
	// greedy loop maintains anyway.
	meets := func() bool {
		return sfp.Reliability(sfp.SystemFailureProb(fails), analysis.Period, goal.Tau) >= goal.Rho()
	}
	if meets() {
		return ks, true, nil
	}
	for {
		// Pick the increment with the lowest resulting union failure
		// probability — the "largest increase in the system reliability"
		// guidance of Section 6.3.
		best := -1
		bestUnion := 0.0
		for j, n := range analysis.Nodes {
			if ks[j] >= maxK {
				continue
			}
			nf := n.FailureProb(ks[j] + 1)
			if nf >= fails[j] {
				continue // saturated: one more re-execution buys nothing
			}
			old := fails[j]
			fails[j] = nf
			union := sfp.SystemFailureProb(fails)
			fails[j] = old
			if best < 0 || union < bestUnion {
				best, bestUnion = j, union
			}
		}
		if best < 0 {
			return ks, false, nil // no increment helps; goal unreachable
		}
		ks[best]++
		fails[best] = analysis.Nodes[best].FailureProb(ks[best])
		if meets() {
			return ks, true, nil
		}
	}
}

// Evaluate builds the complete solution (re-executions, schedule, cost,
// feasibility) for the given hardening levels without modifying the
// problem's architecture.
func Evaluate(p Problem, levels []int) (*Solution, error) {
	ks, reliable, err := ReExecutionOpt(p.App, p.Arch, p.Mapping, levels, p.Goal, p.maxK())
	if err != nil {
		return nil, err
	}
	ar := p.Arch.Clone()
	copy(ar.Levels, levels)
	s, err := sched.Build(sched.Input{
		App:     p.App,
		Arch:    ar,
		Mapping: p.Mapping,
		Ks:      ks,
		Bus:     p.Bus,
		Model:   p.Model,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Levels:      append([]int(nil), levels...),
		Ks:          ks,
		Schedule:    s,
		Length:      s.Length,
		Cost:        ar.Cost(),
		Reliable:    reliable,
		Schedulable: s.Schedulable(p.App),
	}, nil
}

// EvalFunc evaluates one hardening vector for a fixed problem and
// mapping. The levels slice is owned by the caller and mutated between
// calls; implementations must copy whatever they retain.
type EvalFunc func(levels []int) (*Solution, error)

// RedundancyOpt runs the full hardening/re-execution trade-off of Section
// 6.3 for the problem's mapping. It returns the cheapest feasible solution
// found, or the last evaluated (infeasible) solution with Feasible() ==
// false when no hardening assignment makes the mapping both reliable and
// schedulable — the mapping optimizer then discards this mapping.
//
// The search starts from the architecture's minimum hardening levels
// (Fig. 5 line 5), greedily raises the level that most shortens the
// worst-case schedule until feasible, then iteratively lowers levels while
// feasibility is preserved, always keeping the cheapest feasible
// alternative.
func RedundancyOpt(p Problem) (*Solution, error) {
	return RedundancyOptWith(p, func(levels []int) (*Solution, error) {
		return Evaluate(p, levels)
	})
}

// RedundancyOptWith is RedundancyOpt with the per-vector evaluation
// pluggable, so a memoizing evaluator (package evalengine) can intercept
// every probe. The search logic is identical to RedundancyOpt. It ranks
// probes by feasibility, Cost and Length only, so eval may return
// solutions without a Schedule; the result then carries none either.
func RedundancyOptWith(p Problem, eval EvalFunc) (*Solution, error) {
	if p.FixedLevels != nil {
		if len(p.FixedLevels) != len(p.Arch.Nodes) {
			return nil, fmt.Errorf("redundancy: fixed levels cover %d of %d nodes", len(p.FixedLevels), len(p.Arch.Nodes))
		}
		return eval(p.FixedLevels)
	}
	levels := make([]int, len(p.Arch.Nodes))
	for j, n := range p.Arch.Nodes {
		levels[j] = n.MinLevel()
	}
	cur, err := eval(levels)
	if err != nil {
		return nil, err
	}
	// Phase 1: raise hardening greedily until feasible.
	for !cur.Feasible() {
		best := (*Solution)(nil)
		bestJ := -1
		for j, n := range p.Arch.Nodes {
			if levels[j] >= n.MaxLevel() {
				continue
			}
			levels[j]++
			cand, err := eval(levels)
			levels[j]--
			if err != nil {
				return nil, err
			}
			if better(cand, best) {
				best, bestJ = cand, j
			}
		}
		if bestJ < 0 {
			return cur, nil // every node at max hardening and still infeasible
		}
		levels[bestJ]++
		cur = best
	}
	// Phase 2: lower hardening while a cheaper feasible alternative
	// exists.
	for {
		var best *Solution
		bestJ := -1
		for j, n := range p.Arch.Nodes {
			if levels[j] <= n.MinLevel() {
				continue
			}
			levels[j]--
			cand, err := eval(levels)
			levels[j]++
			if err != nil {
				return nil, err
			}
			if !cand.Feasible() || cand.Cost >= cur.Cost {
				continue
			}
			if best == nil || cand.Cost < best.Cost ||
				(cand.Cost == best.Cost && cand.Length < best.Length) {
				best, bestJ = cand, j
			}
		}
		if bestJ < 0 {
			return cur, nil
		}
		levels[bestJ]--
		cur = best
	}
}

// better orders phase-1 candidates: feasible beats infeasible; then
// reliable beats unreliable; then shorter worst-case schedule; then lower
// cost.
func better(a, b *Solution) bool {
	if b == nil {
		return true
	}
	if a.Feasible() != b.Feasible() {
		return a.Feasible()
	}
	if a.Reliable != b.Reliable {
		return a.Reliable
	}
	if a.Length != b.Length {
		return a.Length < b.Length
	}
	return a.Cost < b.Cost
}
