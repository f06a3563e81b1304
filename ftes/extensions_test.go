package ftes_test

import (
	"strings"
	"testing"

	"repro/ftes"
)

// buildTwoProcApp builds a 2-process chain on a single 1-level node for
// facade extension tests.
func buildTwoProcApp(t *testing.T) (*ftes.Application, *ftes.Architecture) {
	t.Helper()
	b := ftes.NewBuilder("ext")
	b.Graph("G", 500)
	p1 := b.Process("A", 5)
	p2 := b.Process("B", 5)
	b.Edge("e", p1, p2, 4)
	app := b.MustBuild()
	node := ftes.Node{
		ID:   0,
		Name: "N",
		Versions: []ftes.HVersion{
			{Level: 1, Cost: 5, WCET: []float64{80, 100}, FailProb: []float64{1e-3, 1e-3}},
		},
	}
	return app, ftes.NewArchitecture([]*ftes.Node{&node})
}

func TestFacadeCheckpointing(t *testing.T) {
	app, ar := buildTwoProcApp(t)
	sol, err := ftes.EvaluateCheckpointing(app, ar, []int{0, 0},
		ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour},
		ftes.CheckpointOverheads{Chi: 1, Alpha: 1}, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Reliable {
		t.Fatal("should meet the goal")
	}
	// Re-execution worst case: 180 + k×105; checkpointing must be
	// shorter for the same k.
	plain := 180.0 + float64(sol.Ks[0])*105
	if sol.Schedule.Length >= plain {
		t.Errorf("checkpointing %v not below re-execution %v", sol.Schedule.Length, plain)
	}
}

func TestFacadeOptimalSegments(t *testing.T) {
	if n := ftes.OptimalSegments(100, 2, ftes.CheckpointOverheads{Chi: 1, Alpha: 1}, 5, 32); n != 10 {
		t.Errorf("n = %d, want 10", n)
	}
}

func TestFacadeReplication(t *testing.T) {
	b := ftes.NewBuilder("repl")
	b.Graph("G", 500)
	p1 := b.Process("A", 5)
	p2 := b.Process("B", 5)
	b.Edge("e", p1, p2, 4)
	app := b.MustBuild()
	mk := func(id int, name string) ftes.Node {
		return ftes.Node{
			ID:   ftes.NodeID(id),
			Name: name,
			Versions: []ftes.HVersion{
				{Level: 1, Cost: 5, WCET: []float64{80, 100}, FailProb: []float64{1e-3, 1e-3}},
			},
		}
	}
	n1, n2 := mk(0, "N1"), mk(1, "N2")
	ar := ftes.NewArchitecture([]*ftes.Node{&n1, &n2})
	sol, err := ftes.EvaluateReplication(ftes.ReplicationProblem{
		App: app, Arch: ar, Mapping: []int{0, 0},
		Replicas: ftes.ReplicaAssignment{0: {0, 1}},
		Goal:     ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.ReplicaOf) != 3 {
		t.Errorf("expanded to %d processes, want 3", len(sol.ReplicaOf))
	}
	if _, err := ftes.EvaluateReplication(ftes.ReplicationProblem{Arch: ar}); err == nil {
		t.Error("want error for a nil application")
	}
}

func TestFacadeWCET(t *testing.T) {
	progs := []ftes.WCETProgram{
		{Name: "A", Root: ftes.WCETSeq{
			ftes.WCETBlock{Name: "init", N: 100000},
			ftes.WCETLoop{Body: ftes.WCETBlock{N: 5000}, Bound: 50, TestCycles: 10},
		}},
		{Name: "B", Root: ftes.WCETBranch{
			TestCycles:   100,
			Alternatives: []ftes.WCETNode{ftes.WCETBlock{N: 300000}, ftes.WCETBlock{N: 100000}},
		}},
	}
	node, err := ftes.BuildWCETNode(ftes.WCETNodeSpec{
		ID: 0, Name: "N", ClockMHz: 100, BaseCost: 4, Levels: 3,
		HPDPercent: 25, SERPerCycle: 1e-11,
	}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if len(node.Versions) != 3 {
		t.Fatalf("%d versions", len(node.Versions))
	}
}

func TestFacadeVisualization(t *testing.T) {
	app, ar := buildTwoProcApp(t)
	s, err := ftes.BuildSchedule(ftes.ScheduleInput{
		App: app, Arch: ar, Mapping: []int{0, 0}, Ks: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	chart := &ftes.GanttChart{App: app, Arch: ar, Mapping: []int{0, 0}, Schedule: s, Deadline: 500}
	var sb strings.Builder
	if err := chart.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "N^1") {
		t.Errorf("chart:\n%s", sb.String())
	}
	sb.Reset()
	if err := ftes.WriteDot(&sb, app, ftes.DotOptions{Arch: ar, Mapping: []int{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Errorf("dot:\n%s", sb.String())
	}
}

// TestFacadeMappingAndRedundancy drives the mapping and redundancy
// wrappers.
func TestFacadeMappingAndRedundancy(t *testing.T) {
	app, ar := buildTwoProcApp(t)
	p := ftes.RedundancyProblem{
		App:  app,
		Arch: ar,
		Goal: ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour},
	}
	res, err := ftes.OptimizeMapping(p, nil, ftes.MinimizeScheduleLength, ftes.MappingParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != 2 {
		t.Fatalf("mapping %v", res.Mapping)
	}
	p.Mapping = res.Mapping
	sol, err := ftes.RedundancyOpt(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil || sol.Ks == nil {
		t.Fatal("no redundancy solution")
	}
}

// TestFacadeSimulate drives the execution simulator through the facade.
func TestFacadeSimulate(t *testing.T) {
	app, ar := buildTwoProcApp(t)
	s, err := ftes.BuildSchedule(ftes.ScheduleInput{
		App: app, Arch: ar, Mapping: []int{0, 0}, Ks: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ftes.Simulate(ftes.SimInput{
		App: app, Arch: ar, Mapping: []int{0, 0}, Ks: []int{1},
		Static: s, Faults: []int{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One fault on A (t=80, μ=5): 80+5+80 = 165, then B (100): 265.
	if res.Makespan != 265 {
		t.Errorf("makespan %v, want 265", res.Makespan)
	}
}

// TestFacadeMultiRate drives the hyperperiod evaluation through the
// facade.
func TestFacadeMultiRate(t *testing.T) {
	b := ftes.NewBuilder("mr")
	b.Graph("fast", 40)
	b.Process("F", 1)
	b.Graph("slow", 90)
	b.Process("S", 1)
	app := b.MustBuild()
	node := ftes.Node{
		ID:   0,
		Name: "N",
		Versions: []ftes.HVersion{
			{Level: 1, Cost: 1, WCET: []float64{10, 20}, FailProb: []float64{1e-6, 1e-6}},
		},
	}
	ar := ftes.NewArchitecture([]*ftes.Node{&node})
	spec := &ftes.MultiRateSpec{App: app, Periods: []float64{50, 100}}
	u, err := ftes.UnrollMultiRate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if u.Hyperperiod != 100 || u.App.NumProcesses() != 3 {
		t.Fatalf("unrolled %+v", u)
	}
	sol, err := ftes.EvaluateMultiRate(spec, ar, []int{0, 0}, ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible() {
		t.Errorf("two-rate toy should be feasible: %+v", sol)
	}
}
