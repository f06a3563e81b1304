// Package sfp implements the System Failure Probability analysis of
// Appendix A of the paper. It connects the hardening level of each
// computation node (through the per-process failure probabilities p_ijh)
// with the maximum number of re-executions k_j that must be provided in
// software for the system to satisfy a reliability goal ρ = 1 − γ within a
// time unit τ (one hour).
//
// Formulae (numbering follows the paper):
//
//	(1) Pr(0; N_j^h)      = Π over processes mapped on N_j^h of (1 − p_ijh)
//	(2,3) Pr(f; N_j^h)    = Pr(0; N_j^h) · Σ over f-fault scenarios of Π p
//	(4) Pr(f > k_j; N_j^h) = 1 − Pr(0) − Σ_{f=1..k_j} Pr(f)
//	(5) Pr(∪_j f > k_j)   = 1 − Π_j (1 − Pr(f > k_j; N_j^h))
//	(6) (1 − Pr(∪ ...))^(τ/T) ≥ ρ
//
// The f-fault scenarios are combinations with repetitions of f faults on
// the processes of the node; their probability sum is the complete
// homogeneous symmetric polynomial h_f of the process failure
// probabilities (package prob). All intermediate values are rounded
// pessimistically at 10^-11 accuracy exactly as in the paper's Appendix
// A.2 computation example.
package sfp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/prob"
)

// DefaultMaxK caps the number of software re-executions the analysis will
// consider per node. Beyond roughly a dozen re-executions the residual
// failure probability is dominated by the 10^-11 rounding floor, so larger
// values only waste schedule time.
const DefaultMaxK = 32

// Goal is the reliability goal ρ = 1 − γ: the probability of a system
// failure due to transient faults within the time unit Tau must not exceed
// Gamma.
type Goal struct {
	// Gamma is γ, the maximum acceptable system failure probability per
	// time unit.
	Gamma float64
	// Tau is the time unit τ in milliseconds (the paper uses one hour).
	Tau float64
}

// Rho returns ρ = 1 − γ.
func (g Goal) Rho() float64 { return 1 - g.Gamma }

// Validate checks that the goal is meaningful.
func (g Goal) Validate() error {
	if !(g.Gamma > 0 && g.Gamma < 1) {
		return fmt.Errorf("sfp: goal gamma %v outside (0,1)", g.Gamma)
	}
	if g.Tau <= 0 {
		return fmt.Errorf("sfp: goal tau %v not positive", g.Tau)
	}
	return nil
}

// Node is the per-node SFP analysis for a fixed set of processes mapped on
// one h-version: it caches Pr(0) and the f-fault probabilities so that
// Pr(f > k) queries for varying k are O(1) after the setup. Only the
// prefix up to the saturation point is stored: beyond it every Pr(f) is
// exactly zero and Pr(f > k) is constant, so the queries answer from the
// last stored entry.
type Node struct {
	pr0         float64
	maxK, split int32
	// buf[f-1] is Pr(f; N_j^h) for f = 1..split, and buf[split+k] is
	// Pr(f > k; N_j^h) for k = 0..len(buf)-split-1.
	buf []float64
}

// ErrBadProb is returned when a process failure probability is outside
// [0, 1).
var ErrBadProb = errors.New("sfp: process failure probability outside [0,1)")

// NewNode builds the analysis for a node on which processes with the given
// single-execution failure probabilities are mapped, supporting up to maxK
// re-executions. An empty probs slice is valid and models a node with no
// processes (its failure probability is zero).
func NewNode(probs []float64, maxK int) (*Node, error) {
	n := new(Node)
	if _, err := AppendNode(nil, n, probs, maxK); err != nil {
		return nil, err
	}
	return n, nil
}

// AppendNode builds the analysis NewNode builds into *n, appending its
// probability prefix (at most 2·maxK+1 values) to slab and returning the
// extended slab; the prefix then lives in slab's backing array, which the
// caller must not write again. Nothing is allocated when slab has room.
// On an ErrBadProb input *n is untouched and slab is returned as given.
func AppendNode(slab []float64, n *Node, probs []float64, maxK int) ([]float64, error) {
	if maxK < 0 {
		maxK = 0
	}
	sum := 0.0
	for _, p := range probs {
		if !(p >= 0 && p < 1) {
			return slab, fmt.Errorf("%w: %v", ErrBadProb, p)
		}
		sum += p
	}
	// Formula (1), rounded down.
	pr0 := 1.0
	for _, p := range probs {
		pr0 *= 1 - p
	}
	pr0 = prob.FloorP(pr0)
	// Formula (4) accumulated over k. The paper works in decimal with
	// 1e-11 accuracy: every Pr(f) is rounded down and the residual
	// 1 − Pr(0) − Σ Pr(f) is rounded up. Because all rounded quantities
	// are exact multiples of 1e-11, the subtraction is carried out on
	// integer tick counts (1 tick = 1e-11) so that binary floating point
	// noise cannot push the residual across a tick boundary — this
	// reproduces Appendix A.2 digit for digit.
	const ticksPerUnit = int64(1e11)
	// pr0 and every Pr(f) are tick multiples up to one ulp; Round recovers
	// the exact integer tick count.
	residualTicks := ticksPerUnit - int64(math.Round(pr0*1e11))
	// The prefix is assembled in fixed-size buffers, which stay on the
	// stack for the usual maxK, and copied out once its length is known.
	var prfBuf, failBuf [DefaultMaxK + 1]float64
	prf, fail := prfBuf[:0], append(failBuf[:0], clampTicks(residualTicks))
	// h_f(p) is computed one fault count at a time: row[i] holds h_{f-1}
	// over the first i+1 processes and is overwritten in place by h_f.
	// This is the recurrence of prob.CompleteHomogeneous,
	// h_f(p_1..p_i) = h_f(p_1..p_{i-1}) + p_i · h_{f-1}(p_1..p_i), with
	// the same operands in the same order, so every h_f is bit-identical —
	// but the rows can stop at saturation instead of running to maxK.
	var rowBuf [64]float64
	row := rowBuf[:0]
	if len(probs) > len(rowBuf) {
		row = make([]float64, len(probs))
	}
	row = row[:len(probs)]
	for i := range row {
		row[i] = 1 // h_0
	}
	for f := 1; f <= maxK; f++ {
		hf := 0.0 // h_f over the empty prefix
		for i, x := range probs {
			hf = hf + x*row[i]
			row[i] = hf
		}
		prf = append(prf, prob.FloorP(pr0*hf))
		residualTicks -= int64(math.Round(prf[f-1] * 1e11))
		fail = append(fail, clampTicks(residualTicks))
		// Saturation: Pr(f) rounds to zero with a margin, and Σp ≤ 1/2
		// gives h_{f+1} ≤ h_f·Σp ≤ h_f/2 (each multiset of f+1 faults
		// extends one of f faults by one process). Every later Pr(f) is
		// then exactly zero and the residual no longer moves.
		if prf[f-1] == 0 && pr0*hf*1e11 < 0.5 && sum <= 0.5 {
			break
		}
	}
	base := len(slab)
	slab = append(append(slices.Grow(slab, len(prf)+len(fail)), prf...), fail...)
	*n = Node{pr0: pr0, maxK: int32(maxK), split: int32(len(prf)), buf: slab[base:len(slab):len(slab)]}
	return slab, nil
}

// clampTicks converts a tick count (1 tick = 1e-11) into a probability in
// [0, 1].
func clampTicks(t int64) float64 {
	if t < 0 {
		return 0
	}
	return prob.Clamp01(float64(t) / 1e11)
}

// MaxK returns the largest supported re-execution count.
func (n *Node) MaxK() int { return int(n.maxK) }

// PrZero returns Pr(0; N_j^h): the probability that one iteration of the
// application executes on this node without any fault (formula 1, rounded
// down).
func (n *Node) PrZero() float64 { return n.pr0 }

// PrExactly returns Pr(f; N_j^h): the probability of successful recovery
// from exactly f faults (formula 3, rounded down). f must be in
// [1, MaxK()].
func (n *Node) PrExactly(f int) (float64, error) {
	if f < 1 || f > int(n.maxK) {
		return 0, fmt.Errorf("sfp: PrExactly(%d) outside [1,%d]", f, n.maxK)
	}
	if f > int(n.split) {
		return 0, nil // past saturation
	}
	return n.buf[f-1], nil
}

// FailureProb returns Pr(f > k; N_j^h): the probability that the node
// experiences more faults than its k re-executions can tolerate in one
// application iteration (formula 4, rounded up). k beyond MaxK saturates
// at MaxK.
func (n *Node) FailureProb(k int) float64 {
	fail := n.buf[n.split:]
	return fail[min(max(k, 0), len(fail)-1)]
}

// SaturationK returns the smallest k at which adding further re-executions
// no longer reduces the node failure probability (it has reached either
// zero or the rounding floor).
func (n *Node) SaturationK() int {
	fail := n.buf[n.split:]
	for k := 0; k < len(fail)-1; k++ {
		if fail[k+1] >= fail[k] {
			return k
		}
	}
	// Past the stored prefix the failure probability is constant, so the
	// last stored k is the answer whether or not it is MaxK.
	return len(fail) - 1
}

// SystemFailureProb returns the probability that at least one node fails
// in one application iteration: formula (5) over the per-node
// probabilities Pr(f > k_j; N_j^h), rounded up.
func SystemFailureProb(nodeFail []float64) float64 {
	return prob.Clamp01(prob.CeilP(prob.UnionFail(nodeFail)))
}

// Reliability returns the probability that the system survives the whole
// time unit τ given the per-iteration system failure probability sysFail
// and the application period T (formula 6, left-hand side, rounded down).
func Reliability(sysFail, period, tau float64) float64 {
	if period <= 0 {
		return 0
	}
	iterations := tau / period
	return prob.Clamp01(prob.FloorP(prob.PowSurvive(sysFail, iterations)))
}

// MaxSystemFailure returns the reliability ceiling of the goal at the
// given application period: the largest per-iteration system failure
// probability u on the 10^-11 grid of SystemFailureProb for which
// Reliability(u, period, g.Tau) ≥ g.Rho(), so SystemFailureProb(f) ≤
// MaxSystemFailure(T) decides formula (6) with one comparison. It is
// −1e-11, below every u, when not even u = 0 meets the goal (a
// non-positive period). The error is the goal's Validate error.
func (g Goal) MaxSystemFailure(period float64) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	// Reliability falls as u grows, so the ticks that meet the goal are a
	// prefix of the grid: bisect for its last tick lo, in 37 evaluations
	// of Reliability itself. Tick −1 stands for "none", tick 1e11+1 for
	// "past the grid".
	lo, hi := int64(-1), int64(1e11)+1
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; Reliability(clampTicks(mid), period, g.Tau) >= g.Rho() {
			lo = mid
		} else {
			hi = mid
		}
	}
	return float64(lo) / 1e11, nil
}

// Analysis evaluates a complete deployment: one analysed Node per
// architecture node plus the application period.
type Analysis struct {
	Nodes  []*Node
	Period float64
}

// NewAnalysis builds the analysis from per-node process failure
// probability sets. nodeProbs[j] lists p_ijh for the processes mapped on
// architecture node j at its current hardening level.
func NewAnalysis(nodeProbs [][]float64, period float64, maxK int) (*Analysis, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sfp: non-positive period %v", period)
	}
	a := &Analysis{Period: period}
	for j, ps := range nodeProbs {
		n, err := NewNode(ps, maxK)
		if err != nil {
			return nil, fmt.Errorf("sfp: node %d: %w", j, err)
		}
		a.Nodes = append(a.Nodes, n)
	}
	return a, nil
}

// SystemReliability returns the τ-horizon reliability for the given
// per-node re-execution counts ks (ks[j] is k_j).
func (a *Analysis) SystemReliability(ks []int, tau float64) float64 {
	fails := make([]float64, len(a.Nodes))
	for j, n := range a.Nodes {
		k := 0
		if j < len(ks) {
			k = ks[j]
		}
		fails[j] = n.FailureProb(k)
	}
	return Reliability(SystemFailureProb(fails), a.Period, tau)
}

// MeetsGoal reports whether the deployment with re-execution counts ks
// satisfies the reliability goal (formula 6).
func (a *Analysis) MeetsGoal(ks []int, g Goal) bool {
	return a.SystemReliability(ks, g.Tau) >= g.Rho()
}
