package sfp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/paper"
	"repro/internal/sfp"
)

// checkCeiling checks, at every tick u from 0 to 4·T* + 1000, that
// u ≤ g.MaxSystemFailure(period) agrees with formula (6),
// Reliability(u, period, τ) ≥ ρ. T* is the ceiling's tick count; u runs
// over the grid values SystemFailureProb returns (an integer tick count
// over 1e11). It returns T*.
func checkCeiling(t *testing.T, label string, g sfp.Goal, period float64) int64 {
	t.Helper()
	ceiling, err := g.MaxSystemFailure(period)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	star := int64(math.Round(ceiling * 1e11))
	if float64(star)/1e11 != ceiling {
		t.Fatalf("%s: ceiling %v is off the 1e-11 grid", label, ceiling)
	}
	last := min(4*star+1000, int64(1e11))
	for tick := int64(0); tick <= last; tick++ {
		u := float64(tick) / 1e11
		if got, want := u <= ceiling, sfp.Reliability(u, period, g.Tau) >= g.Rho(); got != want {
			t.Fatalf("%s: at u = %d ticks (ceiling %d ticks) u ≤ ceiling is %v, Reliability ≥ ρ is %v",
				label, tick, star, got, want)
		}
	}
	return star
}

// TestMaxSystemFailureExhaustive checks the reliability ceiling tick by
// tick on the paper's goals (Fig. 1 and the cruise controller), the Fig. 4
// worked example, 50 seeded (period, γ) pairs over taskgen's ranges and
// 20 more with γ up to 1e-2, whose ceilings lie thousands of ticks out.
func TestMaxSystemFailureExhaustive(t *testing.T) {
	fig1 := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}
	checkCeiling(t, "Fig. 1", fig1, paper.Fig1Deadline)
	checkCeiling(t, "cruise controller", sfp.Goal{Gamma: cc.Gamma, Tau: paper.Hour}, cc.Deadline)

	// Fig. 4a: k = (1, 1) meets the goal and a single re-execution on
	// either node does not (Appendix A.2); the ceiling must split them the
	// same way.
	a, err := sfp.NewAnalysis([][]float64{{1.2e-5, 1.3e-5}, {1.2e-5, 1.3e-5}}, paper.Fig1Deadline, sfp.DefaultMaxK)
	if err != nil {
		t.Fatal(err)
	}
	ceiling, err := fig1.MaxSystemFailure(a.Period)
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range [][]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}} {
		fails := []float64{a.Nodes[0].FailureProb(ks[0]), a.Nodes[1].FailureProb(ks[1])}
		if got, want := sfp.SystemFailureProb(fails) <= ceiling, a.MeetsGoal(ks, fig1); got != want {
			t.Errorf("Fig. 4a k=%v: under the ceiling %v, meets the goal %v", ks, got, want)
		}
	}

	r := rand.New(rand.NewSource(27))
	lo, hi := int64(math.MaxInt64), int64(0)
	for i := 0; i < 70; i++ {
		period := 50 + 950*r.Float64()
		gamma := 7.5e-6 + (2.5e-5-7.5e-6)*r.Float64()
		if i >= 50 {
			gamma = math.Pow(10, -5+3*r.Float64())
		}
		g := sfp.Goal{Gamma: gamma, Tau: paper.Hour}
		star := checkCeiling(t, fmt.Sprintf("period %.3f ms, γ %.4g", period, g.Gamma), g, period)
		lo, hi = min(lo, star), max(hi, star)
	}
	t.Logf("T* spans %d to %d ticks over the seeded pairs", lo, hi)
}

// TestMaxSystemFailureEdges covers the ends of the range: a goal every u
// meets, γ near 1, a period at which not even u = 0 meets the goal, and an
// invalid goal.
func TestMaxSystemFailureEdges(t *testing.T) {
	// τ/T underflows to zero iterations, so (1 − u)^0 = 1 meets the goal
	// even at u = 1.
	every := sfp.Goal{Gamma: 0.5, Tau: math.SmallestNonzeroFloat64}
	if c, err := every.MaxSystemFailure(1000); err != nil || c != 1 {
		t.Errorf("goal met at u = 1: ceiling %v, %v; want 1", c, err)
	}
	if sfp.Reliability(1, 1000, every.Tau) < every.Rho() {
		t.Error("the u = 1 goal is not met at u = 1")
	}

	// γ near 1: ρ is 1e-12, and a microsecond period keeps T* small enough
	// to check every tick.
	near := sfp.Goal{Gamma: 1 - 1e-12, Tau: paper.Hour}
	if star := checkCeiling(t, "γ near 1", near, 1e-3); star <= 0 {
		t.Errorf("γ near 1: T* = %d ticks, want positive", star)
	}

	if c, err := (sfp.Goal{Gamma: 1e-5, Tau: paper.Hour}).MaxSystemFailure(0); err != nil || c >= 0 {
		t.Errorf("zero period: ceiling %v, %v; want one below u = 0", c, err)
	}
	if _, err := (sfp.Goal{Gamma: 1.5, Tau: paper.Hour}).MaxSystemFailure(100); err == nil {
		t.Error("invalid goal: want an error")
	}
}
