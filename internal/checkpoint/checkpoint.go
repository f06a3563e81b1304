// Package checkpoint extends the re-execution recovery of the paper with
// checkpointing, the refinement the same authors develop in their
// companion work (Pop, Izosimov, Eles, Peng — "Design Optimization of
// Time- and Cost-Constrained Fault-Tolerant Embedded Systems with
// Checkpointing and Replication", IEEE TVLSI 2009 — reference [15] of the
// paper).
//
// A process of WCET t is divided into n equal execution segments. At the
// end of each segment a checkpoint is saved (overhead χ) after an error
// detection step (overhead α). When a transient fault strikes, only the
// current segment is re-executed after the recovery overhead μ, instead
// of the whole process:
//
//	fault-free time:  E₀(n) = t + n·(χ + α)
//	per-fault cost:   R(n)  = t/n + μ
//	worst case:       E_k(n) = E₀(n) + k·R(n)
//
// More checkpoints shrink the recovery cost but inflate the fault-free
// time; the optimum (their equation (4)) is n⁰ = √(k·t / (χ+α)), which
// OptimalSegments evaluates with integer rounding.
//
// On the reliability side each segment execution is an independent
// Bernoulli trial: a process that fails a full execution with probability
// p fails one of its n segments with probability 1 − (1−p)^(1/n), rounded
// up for pessimism. The SFP analysis of package sfp then applies
// unchanged with segments in place of processes, because its f-fault
// scenarios are combinations with repetitions over execution units.
package checkpoint

import (
	"fmt"
	"math"

	"repro/internal/appmodel"
	"repro/internal/platform"
	"repro/internal/prob"
)

// Overheads are the per-process checkpointing overheads in milliseconds.
type Overheads struct {
	// Chi is the checkpoint-saving overhead χ per checkpoint.
	Chi float64
	// Alpha is the error-detection overhead α per segment.
	Alpha float64
}

// Validate checks the overheads.
func (o Overheads) Validate() error {
	if o.Chi < 0 || o.Alpha < 0 {
		return fmt.Errorf("checkpoint: negative overheads %+v", o)
	}
	return nil
}

// FaultFreeTime returns E₀(n) = t + n·(χ+α): the execution time with n
// segments and no faults.
func FaultFreeTime(t float64, n int, o Overheads) float64 {
	if n < 1 {
		n = 1
	}
	return t + float64(n)*(o.Chi+o.Alpha)
}

// RecoveryCost returns R(n) = t/n + μ: the worst-case cost of recovering
// from one fault with n segments.
func RecoveryCost(t float64, n int, mu float64) float64 {
	if n < 1 {
		n = 1
	}
	return t/float64(n) + mu
}

// WorstCaseTime returns E_k(n) = E₀(n) + k·R(n).
func WorstCaseTime(t float64, n, k int, o Overheads, mu float64) float64 {
	if k < 0 {
		k = 0
	}
	return FaultFreeTime(t, n, o) + float64(k)*RecoveryCost(t, n, mu)
}

// OptimalSegments returns the segment count n ∈ [1, maxN] minimizing
// E_k(n), evaluating the closed-form optimum √(k·t/(χ+α)) and its integer
// neighbours. With zero overheads it returns maxN (more checkpoints are
// then free); with k = 0 it returns 1.
func OptimalSegments(t float64, k int, o Overheads, mu float64, maxN int) int {
	if maxN < 1 {
		maxN = 1
	}
	if k <= 0 || t <= 0 {
		return 1
	}
	oh := o.Chi + o.Alpha
	if oh <= 0 {
		return maxN
	}
	n0 := math.Sqrt(float64(k) * t / oh)
	best, bestCost := 1, WorstCaseTime(t, 1, k, o, mu)
	for _, cand := range []int{int(math.Floor(n0)), int(math.Ceil(n0))} {
		if cand < 1 {
			cand = 1
		}
		if cand > maxN {
			cand = maxN
		}
		if c := WorstCaseTime(t, cand, k, o, mu); c < bestCost {
			best, bestCost = cand, c
		}
	}
	return best
}

// SegmentFailProb returns the pessimistic probability that one of the n
// equal segments of a process fails, given the probability p that a full
// execution fails: ⌈1 − (1−p)^(1/n)⌉ at the paper's 1e-11 accuracy.
func SegmentFailProb(p float64, n int) float64 {
	if n <= 1 {
		return p
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	seg := -math.Expm1(math.Log1p(-p) / float64(n))
	return prob.Clamp01(prob.CeilP(seg))
}

// Plan is a checkpointing configuration for a mapped application: one
// segment count per process plus the derived scheduler overrides.
type Plan struct {
	// Segments[i] is n_i for process i.
	Segments []int
	// ExtraExec[i] is (n_i−1)·(χ+α), the execution surcharge of the
	// added checkpoint/detection pairs.
	ExtraExec []float64
	// Recovery[i] is t_i/n_i + μ_i, the per-fault recovery cost.
	Recovery []float64
}

// NewSharedSlackPlan chooses segment counts for the *shared* recovery
// slack model of the paper's scheduler, where a node's slack is
// k_j × max_i (recovery_i): only the quantum-defining processes are worth
// checkpointing, because every process pays the fault-free overhead
// n·(χ+α) while the slack shrinks once per node. Starting from n_i = 1,
// the planner repeatedly finds the process defining its node's recovery
// quantum and adds a segment to it while the node's worst-case gain
// k·Δquantum exceeds the χ+α surcharge.
func NewSharedSlackPlan(app *appmodel.Application, ar *platform.Architecture, mapping []int, ks []int, o Overheads, maxSegments int) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if maxSegments < 1 {
		maxSegments = 1
	}
	n := app.NumProcesses()
	if len(mapping) != n {
		return nil, fmt.Errorf("checkpoint: mapping covers %d of %d processes", len(mapping), n)
	}
	plan := &Plan{
		Segments:  make([]int, n),
		ExtraExec: make([]float64, n),
		Recovery:  make([]float64, n),
	}
	t := make([]float64, n)
	for pid := 0; pid < n; pid++ {
		j := mapping[pid]
		if j < 0 || j >= len(ar.Nodes) {
			return nil, fmt.Errorf("checkpoint: process %d mapped to invalid node %d", pid, j)
		}
		v := ar.Version(j)
		if v == nil {
			return nil, fmt.Errorf("checkpoint: node %d has no selected version", j)
		}
		t[pid] = v.WCET[pid]
		plan.Segments[pid] = 1
		plan.Recovery[pid] = RecoveryCost(t[pid], 1, app.Procs[pid].Mu)
	}
	oh := o.Chi + o.Alpha
	for j := range ar.Nodes {
		k := 0
		if j < len(ks) {
			k = ks[j]
		}
		if k == 0 {
			continue // no faults to recover: checkpoints are pure cost
		}
		for {
			// Find the quantum-defining process on node j.
			worst := -1
			for pid := 0; pid < n; pid++ {
				if mapping[pid] != j {
					continue
				}
				if worst < 0 || plan.Recovery[pid] > plan.Recovery[worst] {
					worst = pid
				}
			}
			if worst < 0 || plan.Segments[worst] >= maxSegments {
				break
			}
			cur := plan.Recovery[worst]
			nextRec := RecoveryCost(t[worst], plan.Segments[worst]+1, app.Procs[worst].Mu)
			// New quantum after the split: the runner-up may take over.
			newQuantum := nextRec
			for pid := 0; pid < n; pid++ {
				if mapping[pid] != j || pid == worst {
					continue
				}
				if plan.Recovery[pid] > newQuantum {
					newQuantum = plan.Recovery[pid]
				}
			}
			gain := float64(k)*(cur-newQuantum) - oh
			if gain <= 1e-12 {
				break
			}
			plan.Segments[worst]++
			plan.Recovery[worst] = nextRec
		}
	}
	for pid := 0; pid < n; pid++ {
		// The paper's base WCET already includes one error-detection and
		// result-commit step (Section 3), so n segments add n−1 extra
		// checkpoint/detection pairs.
		plan.ExtraExec[pid] = float64(plan.Segments[pid]-1) * oh
	}
	return plan, nil
}
