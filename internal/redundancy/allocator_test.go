package redundancy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/prob"
	"repro/internal/sfp"
	"repro/internal/taskgen"
)

// Two frozen forms of the Section 6.3 greedy k-assignment, kept as
// independent references for ReExecutionOptAnalysis. Each picks, per
// step, the node whose next re-execution helps most, stops when the goal
// is met, and gives up when no node can improve. Both also return the
// sequence of nodes they incremented.

// refArgmaxReliability maximizes Analysis.SystemReliability over the
// candidate increments (no fixed failure terms).
func refArgmaxReliability(a *sfp.Analysis, goal sfp.Goal) (ks []int, ok bool, path []int) {
	ks = make([]int, len(a.Nodes))
	for !a.MeetsGoal(ks, goal) {
		best, bestRel := -1, 0.0
		for j, n := range a.Nodes {
			if ks[j] >= n.MaxK() || n.FailureProb(ks[j]+1) >= n.FailureProb(ks[j]) {
				continue
			}
			ks[j]++
			rel := a.SystemReliability(ks, goal.Tau)
			ks[j]--
			if best < 0 || rel > bestRel {
				best, bestRel = j, rel
			}
		}
		if best < 0 {
			return ks, false, path
		}
		ks[best]++
		path = append(path, best)
	}
	return ks, true, path
}

// refArgminUnion minimizes the system failure union of the per-node terms
// followed by the fixed terms.
func refArgminUnion(a *sfp.Analysis, goal sfp.Goal, fixed []float64) (ks []int, ok bool, path []int) {
	sysFail := func(ks []int) float64 {
		fails := make([]float64, 0, len(a.Nodes)+len(fixed))
		for j, n := range a.Nodes {
			fails = append(fails, n.FailureProb(ks[j]))
		}
		fails = append(fails, fixed...)
		return sfp.SystemFailureProb(fails)
	}
	ks = make([]int, len(a.Nodes))
	for sfp.Reliability(sysFail(ks), a.Period, goal.Tau) < goal.Rho() {
		best, bestFail := -1, 0.0
		for j, n := range a.Nodes {
			if ks[j] >= n.MaxK() || n.FailureProb(ks[j]+1) >= n.FailureProb(ks[j]) {
				continue
			}
			ks[j]++
			f := sysFail(ks)
			ks[j]--
			if best < 0 || f < bestFail {
				best, bestFail = j, f
			}
		}
		if best < 0 {
			return ks, false, path
		}
		ks[best]++
		path = append(path, best)
	}
	return ks, true, path
}

// logUniform draws from [lo, hi] uniformly in log scale.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// zeroTie reports whether the two greedy paths first part at a step where
// every candidate increment leaves the τ-horizon reliability at zero.
// There the argmax-reliability form cannot rank the candidates and takes
// the first one, while the union form still takes the most helpful one.
func zeroTie(a *sfp.Analysis, goal sfp.Goal, path, refPath []int) bool {
	ks := make([]int, len(a.Nodes))
	for i := 0; i < len(path) && i < len(refPath); i++ {
		if path[i] == refPath[i] {
			ks[path[i]]++
			continue
		}
		for j := range a.Nodes {
			ks[j]++
			rel := a.SystemReliability(ks, goal.Tau)
			ks[j]--
			if rel != 0 {
				return false
			}
		}
		return true
	}
	return false
}

// allocate runs ReExecutionOptAnalysis under goal's reliability ceiling at
// the analysis period.
func allocate(t *testing.T, a *sfp.Analysis, goal sfp.Goal, fixed []float64) ([]int, bool) {
	t.Helper()
	ceiling, err := goal.MaxSystemFailure(a.Period)
	if err != nil {
		t.Fatal(err)
	}
	return ReExecutionOptAnalysis(nil, a, ceiling, fixed)
}

// checkAllocator compares ReExecutionOptAnalysis against both references
// (the argmax form only without fixed terms) and reports any difference
// in ks or verdict. With allowZeroTies, the argmax form may part from the
// allocator at a zero-reliability tie; it returns whether it did.
func checkAllocator(t *testing.T, name string, a *sfp.Analysis, goal sfp.Goal, fixed []float64, allowZeroTies bool) (tied bool) {
	t.Helper()
	ks, ok := allocate(t, a, goal, fixed)
	wantKs, wantOK, path := refArgminUnion(a, goal, fixed)
	if !reflect.DeepEqual(ks, wantKs) || ok != wantOK {
		t.Errorf("%s: allocator ks=%v ok=%v, argmin-union reference ks=%v ok=%v", name, ks, ok, wantKs, wantOK)
	}
	if len(fixed) > 0 {
		return false
	}
	wantKs, wantOK, refPath := refArgmaxReliability(a, goal)
	if reflect.DeepEqual(ks, wantKs) && ok == wantOK {
		return false
	}
	if allowZeroTies && zeroTie(a, goal, path, refPath) {
		return true
	}
	t.Errorf("%s: allocator ks=%v ok=%v, argmax-reliability reference ks=%v ok=%v", name, ks, ok, wantKs, wantOK)
	return false
}

// TestAllocatorMatchesReferences is the differential test of the one
// re-execution allocator on seeded random deployments: 1–5 nodes with 0–7
// processes each, p ∈ [1e-12, 1e-4], γ ∈ [1e-7, 1e-3], a period of
// 10–1000 ms and 0–2 fixed all-replicas-fail terms. The argmin-union form
// must match exactly. The argmax-reliability form must match except on
// deployments so far from the goal that a whole greedy step ties at zero
// reliability (about 3 in 10,000 of these vectors; TestAllocatorZeroReliabilityTie
// pins one); none of the generated instances below is one.
func TestAllocatorMatchesReferences(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	runs := 20000
	if testing.Short() {
		runs = 2000
	}
	ties := 0
	for i := 0; i < runs; i++ {
		probs := make([][]float64, 1+r.Intn(5))
		for j := range probs {
			for n := r.Intn(8); n > 0; n-- {
				probs[j] = append(probs[j], logUniform(r, 1e-12, 1e-4))
			}
		}
		a, err := sfp.NewAnalysis(probs, logUniform(r, 10, 1000), sfp.DefaultMaxK)
		if err != nil {
			t.Fatal(err)
		}
		goal := sfp.Goal{Gamma: logUniform(r, 1e-7, 1e-3), Tau: 3.6e6}
		var fixed []float64
		for n := r.Intn(3); n > 0; n-- {
			p := logUniform(r, 1e-12, 1e-4) * logUniform(r, 1e-12, 1e-4)
			fixed = append(fixed, prob.Clamp01(prob.CeilP(p)))
		}
		if checkAllocator(t, fmt.Sprintf("vector %d", i), a, goal, fixed, true) {
			ties++
		}
		if len(fixed) > 0 && checkAllocator(t, fmt.Sprintf("vector %d without fixed terms", i), a, goal, nil, true) {
			ties++
		}
	}
	t.Logf("%d of %d vectors part from the argmax-reliability form at a zero-reliability tie", ties, runs)
	if ties > runs/1000 {
		t.Errorf("%d zero-reliability ties in %d vectors, want at most %d", ties, runs, runs/1000)
	}
}

// TestAllocatorMatchesReferencesGradientAblation runs the differential
// test, with no tie allowance, on instances built like those of the E10
// gradient ablation: generated platforms at SER 1e-10 and 1e-11 with the
// processes dealt round-robin over the nodes and node j at hardening
// level j+1. The first 20 seeds per size are the ablation's own
// instances at the default scale.
func TestAllocatorMatchesReferencesGradientAblation(t *testing.T) {
	for _, ser := range []float64{1e-10, 1e-11} {
		for _, n := range []int{20, 40} {
			for i := 0; i < 100; i++ {
				seed := 1 + int64(i) + int64(n)*1000003
				inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, n, ser, 25))
				if err != nil {
					t.Fatal(err)
				}
				probs := make([][]float64, len(inst.Platform.Nodes))
				for pid := 0; pid < inst.App.NumProcesses(); pid++ {
					j := pid % len(probs)
					versions := inst.Platform.Nodes[j].Versions
					lv := min(j, len(versions)-1)
					probs[j] = append(probs[j], versions[lv].FailProb[pid])
				}
				a, err := sfp.NewAnalysis(probs, inst.App.EffectivePeriod(), sfp.DefaultMaxK)
				if err != nil {
					t.Fatal(err)
				}
				checkAllocator(t, fmt.Sprintf("SER %g, %d procs, seed %d", ser, n, seed), a, inst.Goal, nil, false)
			}
		}
	}
}

// TestAllocatorZeroReliabilityTie pins the one case where the allocator
// parts from the argmax-reliability form on purpose. Three nodes at a
// 5 ms period are so far from γ = 9e-4/h that every first increment
// leaves the one-hour reliability at zero. The argmax form cannot rank
// them and spends the first two re-executions on node 0, the least
// failure-prone node; the allocator lowers the union failure probability
// at every step and meets the goal with one re-execution fewer.
func TestAllocatorZeroReliabilityTie(t *testing.T) {
	a, err := sfp.NewAnalysis([][]float64{{1e-5}, {8e-5}, {8e-5}}, 5, sfp.DefaultMaxK)
	if err != nil {
		t.Fatal(err)
	}
	goal := sfp.Goal{Gamma: 9e-4, Tau: 3.6e6}
	for j := range a.Nodes {
		ks := make([]int, len(a.Nodes))
		ks[j] = 1
		if rel := a.SystemReliability(ks, goal.Tau); rel != 0 {
			t.Fatalf("reliability with ks=%v is %g, want a zero-reliability tie", ks, rel)
		}
	}
	ks, ok := allocate(t, a, goal, nil)
	if want := []int{1, 2, 2}; !reflect.DeepEqual(ks, want) || !ok {
		t.Errorf("allocator ks=%v ok=%v, want %v true", ks, ok, want)
	}
	unionKs, _, path := refArgminUnion(a, goal, nil)
	if !reflect.DeepEqual(unionKs, ks) {
		t.Errorf("argmin-union reference ks=%v, allocator %v", unionKs, ks)
	}
	argmaxKs, argmaxOK, refPath := refArgmaxReliability(a, goal)
	if want := []int{2, 2, 2}; !reflect.DeepEqual(argmaxKs, want) || !argmaxOK {
		t.Errorf("argmax-reliability reference ks=%v ok=%v, want %v true", argmaxKs, argmaxOK, want)
	}
	if !zeroTie(a, goal, path, refPath) {
		t.Errorf("paths %v and %v do not part at a zero-reliability tie", path, refPath)
	}
}
