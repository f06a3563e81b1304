package mapping

import (
	"math"
	"testing"

	"repro/internal/appmodel"
	"repro/internal/evalengine"
	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

func fig1Problem() redundancy.Problem {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	return redundancy.Problem{
		App:  app,
		Arch: platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]}),
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Bus:  ttp.NewBus(2, pl.Bus.SlotLen),
	}
}

// TestOptimizeFindsFig4aCostOrBetter: on the two-node architecture of
// Fig. 1, optimizing for architecture cost must find a feasible mapping no
// more expensive than the paper's Fig. 4a solution (cost 72). Under our
// concrete bus timing (the paper does not publish message sizes or slot
// lengths) the tabu search actually discovers a cheaper feasible mix —
// N1^2 + N2^1 with k = (1, 3), cost 52 — exactly the kind of
// hardening/re-execution trade the paper advocates.
func TestOptimizeFindsFig4aCostOrBetter(t *testing.T) {
	p := fig1Problem()
	res, err := Optimize(evalengine.New(p), nil, ArchitectureCost, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Feasible() {
		t.Fatal("two-node Fig. 1 architecture should be feasible")
	}
	if res.Solution.Cost > 72 {
		t.Errorf("cost = %v, want ≤ 72 (C_a of Fig. 4)", res.Solution.Cost)
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

// TestOptimizeScheduleLength: the schedule-length objective yields a
// feasible schedule within the deadline.
func TestOptimizeScheduleLength(t *testing.T) {
	p := fig1Problem()
	res, err := Optimize(evalengine.New(p), nil, ScheduleLength, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Feasible() {
		t.Fatal("expected feasible solution")
	}
	if res.Solution.Schedule.Length > paper.Fig1Deadline {
		t.Errorf("SL = %v exceeds deadline", res.Solution.Schedule.Length)
	}
}

// TestOptimizeMonoprocessor: with a single node there is nothing to move;
// the result equals the single evaluation (Fig. 4e: N2^3, cost 80).
func TestOptimizeMonoprocessor(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	p := redundancy.Problem{
		App:  app,
		Arch: platform.NewArchitecture([]*platform.Node{&pl.Nodes[1]}),
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Bus:  ttp.NewBus(1, pl.Bus.SlotLen),
	}
	res, err := Optimize(evalengine.New(p), nil, ArchitectureCost, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Feasible() {
		t.Fatal("monoprocessor N2 should be feasible at h=3")
	}
	if res.Solution.Cost != 80 {
		t.Errorf("cost = %v, want 80 (C_e)", res.Solution.Cost)
	}
	for _, j := range res.Mapping {
		if j != 0 {
			t.Errorf("monoprocessor mapping uses node %d", j)
		}
	}
}

func TestOptimizeInitialValidation(t *testing.T) {
	p := fig1Problem()
	if _, err := Optimize(evalengine.New(p), []int{0}, ScheduleLength, Params{}); err == nil {
		t.Error("want error for short initial mapping")
	}
	if _, err := Optimize(evalengine.New(p), []int{0, 0, 0, 9}, ScheduleLength, Params{}); err == nil {
		t.Error("want error for out-of-range initial mapping")
	}
	p.Arch = &platform.Architecture{}
	if _, err := Optimize(evalengine.New(p), nil, ScheduleLength, Params{}); err == nil {
		t.Error("want error for empty architecture")
	}
}

// TestOptimizeRespectsInitial: a provided initial mapping is the starting
// point; with zero iterations allowed the result is its evaluation.
func TestOptimizeRespectsInitial(t *testing.T) {
	p := fig1Problem()
	initial := []int{0, 0, 1, 1} // Fig. 4a split
	res, err := Optimize(evalengine.New(p), initial, ArchitectureCost, Params{MaxIterations: 1, MaxNoImprove: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Feasible() || res.Solution.Cost > 72 {
		t.Errorf("Fig. 4a initial mapping should already cost 72, got %+v", res.Solution.Cost)
	}
}

func TestGreedyInitialValid(t *testing.T) {
	p := fig1Problem()
	m, err := GreedyInitial(evalengine.New(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Fatalf("mapping size %d", len(m))
	}
	for pid, j := range m {
		if j < 0 || j >= 2 {
			t.Errorf("process %d mapped to invalid node %d", pid, j)
		}
	}
}

func TestCostFunctionString(t *testing.T) {
	if ScheduleLength.String() != "schedule-length" ||
		ArchitectureCost.String() != "architecture-cost" {
		t.Error("cost function names changed")
	}
	if CostFunction(9).String() != "CostFunction(9)" {
		t.Error("unknown cost function formatting")
	}
}

// TestCriticalPathStartsAtWorstFinisher: the extracted critical path heads
// at the process with the largest worst-case finish and walks only through
// dependencies.
func TestCriticalPathStartsAtWorstFinisher(t *testing.T) {
	p := fig1Problem()
	q := p
	q.Mapping = []int{0, 0, 1, 1}
	sol, err := redundancy.RedundancyOpt(q)
	if err != nil {
		t.Fatal(err)
	}
	path := criticalPath(p.App.Predecessors(), q.Mapping, sol)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	head := path[0]
	for pid := range sol.Schedule.WorstFinish {
		if sol.Schedule.WorstFinish[pid] > sol.Schedule.WorstFinish[head] {
			t.Errorf("process %d finishes worse than path head %d", pid, head)
		}
	}
	// The path ends at a process that starts at time 0.
	tail := path[len(path)-1]
	if sol.Schedule.Start[tail] != 0 {
		t.Errorf("path tail starts at %v, want 0", sol.Schedule.Start[tail])
	}
}

// TestOptimizeImprovesBadInitial: starting from the worst initial mapping
// (everything on N1, Fig. 4d — infeasible), the tabu search must escape to
// a feasible mapping.
func TestOptimizeImprovesBadInitial(t *testing.T) {
	p := fig1Problem()
	res, err := Optimize(evalengine.New(p), []int{0, 0, 0, 0}, ScheduleLength, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Feasible() {
		t.Error("tabu search failed to escape the infeasible all-on-N1 mapping")
	}
}

// TestOptimizeTwoGraphApplication exercises multi-graph applications.
func TestOptimizeTwoGraphApplication(t *testing.T) {
	b := appmodel.NewBuilder("two-graphs")
	b.Graph("G1", 400)
	a1 := b.Process("A1", 5)
	a2 := b.Process("A2", 5)
	b.Edge("e1", a1, a2, 4)
	b.Graph("G2", 400)
	c1 := b.Process("C1", 5)
	c2 := b.Process("C2", 5)
	b.Edge("e2", c1, c2, 4)
	app := b.MustBuild()

	pl := paper.Fig1Platform()
	p := redundancy.Problem{
		App:  app,
		Arch: platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]}),
		Goal: sfp.Goal{Gamma: 1e-5, Tau: paper.Hour},
		Bus:  ttp.NewBus(2, pl.Bus.SlotLen),
	}
	res, err := Optimize(evalengine.New(p), nil, ScheduleLength, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Feasible() {
		t.Error("two independent 2-chains should easily be feasible")
	}
}

// assertSameResult fails unless the two optimization results are
// bit-identical in mapping, evaluation count, and every solution field
// the design strategy consumes.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Mapping) != len(want.Mapping) {
		t.Fatalf("%s: mapping sizes %d vs %d", label, len(got.Mapping), len(want.Mapping))
	}
	for i := range got.Mapping {
		if got.Mapping[i] != want.Mapping[i] {
			t.Fatalf("%s: mapping %v, want %v", label, got.Mapping, want.Mapping)
		}
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("%s: evaluations %d, want %d", label, got.Evaluations, want.Evaluations)
	}
	gs, ws := got.Solution, want.Solution
	if gs.Feasible() != ws.Feasible() {
		t.Errorf("%s: feasible %v, want %v", label, gs.Feasible(), ws.Feasible())
	}
	if math.Float64bits(gs.Cost) != math.Float64bits(ws.Cost) {
		t.Errorf("%s: cost %v, want %v", label, gs.Cost, ws.Cost)
	}
	if math.Float64bits(gs.Schedule.Length) != math.Float64bits(ws.Schedule.Length) {
		t.Errorf("%s: SL %v, want %v", label, gs.Schedule.Length, ws.Schedule.Length)
	}
	for i := range ws.Levels {
		if gs.Levels[i] != ws.Levels[i] {
			t.Errorf("%s: levels %v, want %v", label, gs.Levels, ws.Levels)
			break
		}
	}
	for i := range ws.Ks {
		if gs.Ks[i] != ws.Ks[i] {
			t.Errorf("%s: ks %v, want %v", label, gs.Ks, ws.Ks)
			break
		}
	}
}

// TestCriticalPathWorstCaseArrival is the regression test for the silent
// truncation: under the per-process slack model a successor's start is
// fixed by the predecessor's worst-case (recovery-inclusive) finish, the
// exact fault-free-arrival match fails, and a first-on-its-node process
// has no schedule predecessor — the old walk stopped there. The walk must
// fall back to the latest-arriving predecessor and reach the source.
func TestCriticalPathWorstCaseArrival(t *testing.T) {
	b := appmodel.NewBuilder("worst-case-arrival")
	b.Graph("G", 1000)
	a := b.Process("A", 10)
	bb := b.Process("B", 10)
	b.Edge("e", a, bb, 4)
	app := b.MustBuild()
	app.Procs[a].Mu = 5
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]})
	mapping := []int{0, 1}

	// No bus and per-process slack: B's arrival is A's worst-case finish
	// (finish + k×(wcet+μ)), while the matcher's fault-free candidates are
	// A's finish (no message end is recorded without a bus).
	s, err := sched.Build(sched.Input{
		App:     app,
		Arch:    ar,
		Mapping: mapping,
		Ks:      []int{1, 1},
		Model:   sched.SlackPerProcess,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[bb] <= s.Finish[a] {
		t.Fatalf("precondition failed: B starts at %v, not after A's fault-free finish %v",
			s.Start[bb], s.Finish[a])
	}

	path := criticalPath(app.Predecessors(), mapping, &redundancy.Solution{Schedule: s})
	if len(path) != 2 {
		t.Fatalf("critical path %v: want [B A] — the walk truncated", path)
	}
	if path[0] != bb || path[1] != a {
		t.Errorf("critical path %v, want [%d %d]", path, bb, a)
	}
}
