package checkpoint

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/paper"
	"repro/internal/platform"
)

func TestWorstCaseTimeFormulae(t *testing.T) {
	o := Overheads{Chi: 2, Alpha: 1}
	if got := FaultFreeTime(100, 4, o); got != 112 {
		t.Errorf("E0 = %v, want 112", got)
	}
	if got := RecoveryCost(100, 4, 5); got != 30 {
		t.Errorf("R = %v, want 30", got)
	}
	if got := WorstCaseTime(100, 4, 2, o, 5); got != 112+60 {
		t.Errorf("E2 = %v, want 172", got)
	}
	// Degenerate inputs clamp.
	if FaultFreeTime(100, 0, o) != 103 {
		t.Error("n<1 should clamp to 1")
	}
	if WorstCaseTime(100, 1, -3, o, 5) != 103 {
		t.Error("negative k should clamp to 0")
	}
}

func TestOptimalSegmentsClosedForm(t *testing.T) {
	// n0 = sqrt(k·t/(χ+α)) = sqrt(2·100/2) = 10.
	o := Overheads{Chi: 1, Alpha: 1}
	if got := OptimalSegments(100, 2, o, 5, 32); got != 10 {
		t.Errorf("n = %d, want 10", got)
	}
	// k = 0: no faults, checkpoints only cost.
	if got := OptimalSegments(100, 0, o, 5, 32); got != 1 {
		t.Errorf("k=0: n = %d, want 1", got)
	}
	// Free checkpoints: cap at maxN.
	if got := OptimalSegments(100, 2, Overheads{}, 5, 16); got != 16 {
		t.Errorf("free overheads: n = %d, want 16", got)
	}
	// Cap respected.
	if got := OptimalSegments(100, 2, o, 5, 4); got != 4 {
		t.Errorf("capped: n = %d, want 4", got)
	}
}

// TestOptimalSegmentsIsMinimum: the returned n is never worse than any
// other n in range.
func TestOptimalSegmentsIsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		tt := 1 + rng.Float64()*99
		k := rng.Intn(5)
		o := Overheads{Chi: rng.Float64() * 3, Alpha: rng.Float64() * 2}
		mu := rng.Float64() * 5
		maxN := 1 + rng.Intn(31)
		best := OptimalSegments(tt, k, o, mu, maxN)
		bestCost := WorstCaseTime(tt, best, k, o, mu)
		for n := 1; n <= maxN; n++ {
			if c := WorstCaseTime(tt, n, k, o, mu); c < bestCost-1e-9 {
				t.Fatalf("trial %d: n=%d beats chosen n=%d (%v < %v)", trial, n, best, c, bestCost)
			}
		}
	}
}

func TestSegmentFailProb(t *testing.T) {
	// n = 1: unchanged.
	if got := SegmentFailProb(0.3, 1); got != 0.3 {
		t.Errorf("n=1: %v", got)
	}
	// Edges.
	if SegmentFailProb(0, 4) != 0 || SegmentFailProb(1, 4) != 1 {
		t.Error("edge probabilities mishandled")
	}
	// For small p, segment prob ≈ p/n (within rounding), and n segment
	// trials recompose pessimistically to at least p.
	p := 1e-4
	for _, n := range []int{2, 4, 8} {
		seg := SegmentFailProb(p, n)
		if seg < p/float64(n)-1e-11 {
			t.Errorf("n=%d: segment prob %v below p/n", n, seg)
		}
		recomposed := 1 - math.Pow(1-seg, float64(n))
		if recomposed < p-1e-9 {
			t.Errorf("n=%d: recomposed %v underestimates p=%v", n, recomposed, p)
		}
	}
}

func TestOverheadsValidate(t *testing.T) {
	if err := (Overheads{Chi: -1}).Validate(); err == nil {
		t.Error("want error for negative chi")
	}
	if err := (Overheads{Chi: 1, Alpha: 2}).Validate(); err != nil {
		t.Error(err)
	}
}

func fig4aSetup(t *testing.T) (*platform.Platform, *platform.Architecture, []int) {
	t.Helper()
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]})
	ar.Levels = []int{2, 2}
	return pl, ar, []int{0, 0, 1, 1}
}

// TestSharedSlackPlanTargetsQuantum: under shared slack only the
// quantum-defining processes should be segmented; small processes stay
// at n = 1.
func TestSharedSlackPlanTargetsQuantum(t *testing.T) {
	app := paper.Fig1Application()
	_, ar, mapping := fig4aSetup(t)
	plan, err := NewSharedSlackPlan(app, ar, mapping, []int{1, 1}, Overheads{Chi: 1, Alpha: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Every process pays n−1 checkpoint/detection pairs and recovers one
	// segment: t/n + μ.
	for pid, n := range plan.Segments {
		if n < 1 || n > 8 {
			t.Errorf("process %d: %d segments", pid, n)
		}
		if plan.ExtraExec[pid] != float64(n-1)*2 {
			t.Errorf("process %d: extra %v", pid, plan.ExtraExec[pid])
		}
		wcet := ar.Version(mapping[pid]).WCET[pid]
		want := wcet/float64(n) + app.Procs[pid].Mu
		if math.Abs(plan.Recovery[pid]-want) > 1e-12 {
			t.Errorf("process %d: recovery %v, want %v", pid, plan.Recovery[pid], want)
		}
	}
	// The recovery quantum of each node must have shrunk below the
	// single-segment recovery cost of its largest process.
	for j := 0; j < 2; j++ {
		var maxRec, largestT float64
		for pid := range mapping {
			if mapping[pid] != j {
				continue
			}
			if plan.Recovery[pid] > maxRec {
				maxRec = plan.Recovery[pid]
			}
			if w := ar.Version(j).WCET[pid]; w > largestT {
				largestT = w
			}
		}
		if maxRec >= largestT+app.Procs[0].Mu {
			t.Errorf("node %d: quantum %v did not shrink below %v", j, maxRec, largestT+app.Procs[0].Mu)
		}
	}
}

// TestSharedSlackPlanZeroK: with no re-executions, nothing is segmented.
func TestSharedSlackPlanZeroK(t *testing.T) {
	app := paper.Fig1Application()
	_, ar, mapping := fig4aSetup(t)
	plan, err := NewSharedSlackPlan(app, ar, mapping, []int{0, 0}, Overheads{Chi: 1, Alpha: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for pid, n := range plan.Segments {
		if n != 1 {
			t.Errorf("process %d segmented with k=0", pid)
		}
	}
}

// TestSharedSlackPlanValidation rejects bad mappings and overheads.
func TestSharedSlackPlanValidation(t *testing.T) {
	app := paper.Fig1Application()
	_, ar, _ := fig4aSetup(t)
	if _, err := NewSharedSlackPlan(app, ar, []int{0}, []int{1, 1}, Overheads{}, 8); err == nil {
		t.Error("want error for short mapping")
	}
	if _, err := NewSharedSlackPlan(app, ar, []int{0, 0, 0, 9}, []int{1, 1}, Overheads{}, 8); err == nil {
		t.Error("want error for bad mapping")
	}
	if _, err := NewSharedSlackPlan(app, ar, []int{0, 0, 1, 1}, []int{1, 1}, Overheads{Chi: -1}, 8); err == nil {
		t.Error("want error for bad overheads")
	}
}
