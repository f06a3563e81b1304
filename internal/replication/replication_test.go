package replication_test

import (
	"testing"

	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/policyopt"
	"repro/internal/replication"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

// fig1Problem is the Fig. 4a deployment (N1² and N2², P1/P2 on N1 and
// P3/P4 on N2) with no replicas.
func fig1Problem() replication.Problem {
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]})
	ar.Levels = []int{2, 2}
	return replication.Problem{
		App:     paper.Fig1Application(),
		Arch:    ar,
		Mapping: []int{0, 0, 1, 1},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*replication.Problem)
	}{
		{"nil app", func(p *replication.Problem) { p.App = nil }},
		{"short mapping", func(p *replication.Problem) { p.Mapping = []int{0} }},
		{"unknown process", func(p *replication.Problem) { p.Replicas = replication.Assignment{99: {0, 1}} }},
		{"single replica", func(p *replication.Problem) { p.Replicas = replication.Assignment{0: {0}} }},
		{"bad node", func(p *replication.Problem) { p.Replicas = replication.Assignment{0: {0, 7}} }},
		{"duplicate node", func(p *replication.Problem) { p.Replicas = replication.Assignment{0: {0, 0}} }},
		{"primary mismatch", func(p *replication.Problem) { p.Replicas = replication.Assignment{0: {1, 0}} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := fig1Problem()
			c.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestNoReplicationMatchesReExecution: an empty assignment must reproduce
// the plain re-execution analysis (k = 1 per node on Fig. 4a).
func TestNoReplicationMatchesReExecution(t *testing.T) {
	p := fig1Problem()
	pl := paper.Fig1Platform()
	sol, err := policyopt.Evaluate(policyopt.Problem{
		App: p.App, Arch: p.Arch, Mapping: p.Mapping,
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Bus:  ttp.NewBus(2, pl.Bus.SlotLen),
	}, policyopt.NewAssignment(p.App.NumProcesses(), policyopt.ReExecution, replication.Assignment{}))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible() {
		t.Fatal("Fig. 4a should be feasible")
	}
	if sol.Ks[0] != 1 || sol.Ks[1] != 1 {
		t.Errorf("ks = %v, want [1 1]", sol.Ks)
	}
	if sol.Schedule.Length != 340 {
		t.Errorf("length = %v, want 340 (the plain Fig. 4a schedule)", sol.Schedule.Length)
	}
}
