package policyopt

import (
	"testing"

	"repro/internal/appmodel"
	"repro/internal/checkpoint"
	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

func fig1Problem() Problem {
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]})
	ar.Levels = []int{2, 2}
	return Problem{
		App:       paper.Fig1Application(),
		Arch:      ar,
		Mapping:   []int{0, 0, 1, 1},
		Goal:      sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Overheads: checkpoint.Overheads{Chi: 1, Alpha: 1},
		Bus:       ttp.NewBus(2, pl.Bus.SlotLen),
	}
}

func allPolicy(n int, pol Policy) *Assignment {
	return NewAssignment(n, pol, replication.Assignment{})
}

func TestPolicyString(t *testing.T) {
	if ReExecution.String() != "re-execution" ||
		Checkpointing.String() != "checkpointing" ||
		Replication.String() != "replication" {
		t.Error("policy names changed")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy formatting")
	}
}

// TestEvaluateAllReExecution: with every process on plain re-execution
// the solution matches the redundancy baseline (Fig. 4a: k=(1,1),
// 340 ms).
func TestEvaluateAllReExecution(t *testing.T) {
	p := fig1Problem()
	sol, err := Evaluate(p, allPolicy(4, ReExecution))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible() {
		t.Fatal("all-re-execution should be feasible")
	}
	if sol.Ks[0] != 1 || sol.Ks[1] != 1 {
		t.Errorf("ks = %v, want [1 1]", sol.Ks)
	}
	if sol.Schedule.Length != 340 {
		t.Errorf("length = %v, want 340", sol.Schedule.Length)
	}
	for pid, n := range sol.Plan.Segments {
		if n != 1 {
			t.Errorf("process %d segmented under re-execution policy", pid)
		}
	}
}

// TestEvaluateAllCheckpointing beats the re-execution baseline.
func TestEvaluateAllCheckpointing(t *testing.T) {
	p := fig1Problem()
	sol, err := Evaluate(p, allPolicy(4, Checkpointing))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible() {
		t.Fatal("all-checkpointing should be feasible")
	}
	if sol.Schedule.Length >= 340 {
		t.Errorf("length = %v, want < 340", sol.Schedule.Length)
	}
}

// TestEvaluateMixed: one replicated process composes with checkpointing
// on the rest.
func TestEvaluateMixed(t *testing.T) {
	p := fig1Problem()
	a := allPolicy(4, Checkpointing)
	a.Policies[0] = Replication
	a.Replicas[0] = []int{0, 1}
	sol, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Reliable {
		t.Fatal("mixed assignment should be reliable")
	}
	if len(sol.ReplicaOf) != 5 {
		t.Errorf("expanded to %d processes, want 5", len(sol.ReplicaOf))
	}
	if sol.Plan.Segments[0] != 1 || sol.Plan.Recovery[0] != 0 {
		t.Error("replicated process should not carry checkpoint state")
	}
}

func TestEvaluateValidation(t *testing.T) {
	p := fig1Problem()
	// Policy says replication but no replica set.
	a := allPolicy(4, ReExecution)
	a.Policies[2] = Replication
	if _, err := Evaluate(p, a); err == nil {
		t.Error("want error for replication without replicas")
	}
	// Replica set without the policy.
	a = allPolicy(4, ReExecution)
	a.Replicas[1] = []int{0, 1}
	if _, err := Evaluate(p, a); err == nil {
		t.Error("want error for replicas without the policy")
	}
	// Short policy vector.
	if _, err := Evaluate(p, &Assignment{Policies: []Policy{0}, Replicas: replication.Assignment{}}); err == nil {
		t.Error("want error for short policies")
	}
	// Bad goal.
	bad := p
	bad.Goal = sfp.Goal{}
	if _, err := Evaluate(bad, allPolicy(4, ReExecution)); err == nil {
		t.Error("want error for invalid goal")
	}
}

// TestOptimizeNeverWorseThanCheckpointing: the greedy starts from the
// all-checkpointing assignment, so its result can only be equal or
// better.
func TestOptimizeNeverWorseThanCheckpointing(t *testing.T) {
	p := fig1Problem()
	base, err := Evaluate(p, allPolicy(4, Checkpointing))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Feasible() {
		t.Fatal("optimized assignment should be feasible")
	}
	if opt.Schedule.Length > base.Schedule.Length+1e-9 {
		t.Errorf("optimize worsened the schedule: %v vs %v", opt.Schedule.Length, base.Schedule.Length)
	}
}

// TestOptimizeMonoprocessor: with a single node replication is
// impossible; the result is the checkpointing baseline.
func TestOptimizeMonoprocessor(t *testing.T) {
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture([]*platform.Node{&pl.Nodes[1]})
	ar.Levels = []int{3}
	p := Problem{
		App:       paper.Fig1Application(),
		Arch:      ar,
		Mapping:   []int{0, 0, 0, 0},
		Goal:      sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Overheads: checkpoint.Overheads{Chi: 1, Alpha: 1},
	}
	sol, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	for pid, pol := range sol.Assignment.Policies {
		if pol == Replication {
			t.Errorf("process %d replicated on a monoprocessor", pid)
		}
	}
}

// TestOptimizeReplicatesWhenProfitable: craft a system where replicating
// the bottleneck process clearly pays: a high-failure process whose
// re-execution slack dominates an otherwise idle second node.
func TestOptimizeReplicatesWhenProfitable(t *testing.T) {
	b := appmodel.NewBuilder("bottleneck")
	b.Graph("G", 300)
	// One long, moderately unreliable process and two small ones on node
	// 0; node 1 idle. With p = 2.5e-5 the two-replica failure product
	// (6.25e-10 per iteration) meets the goal budget (γ/12000 ≈ 8.3e-10),
	// while the re-execution alternative needs k = 1 and therefore a
	// 152 ms slack that busts the 300 ms deadline.
	big := b.Process("Big", 2)
	s1 := b.Process("S1", 2)
	s2 := b.Process("S2", 2)
	b.Edge("e1", big, s1, 4)
	b.Edge("e2", big, s2, 4)
	app := b.MustBuild()
	mkNode := func(id int, name string) platform.Node {
		return platform.Node{
			ID:   platform.NodeID(id),
			Name: name,
			Versions: []platform.HVersion{{
				Level: 1, Cost: 10,
				WCET:     []float64{150, 20, 20},
				FailProb: []float64{2.5e-5, 1e-6, 1e-6},
			}},
		}
	}
	n0, n1 := mkNode(0, "N0"), mkNode(1, "N1")
	ar := platform.NewArchitecture([]*platform.Node{&n0, &n1})
	p := Problem{
		App:     app,
		Arch:    ar,
		Mapping: []int{0, 0, 0},
		Goal:    sfp.Goal{Gamma: 1e-5, Tau: paper.Hour},
		// Expensive checkpoints so replication is the only way to shed
		// the big process's slack.
		Overheads: checkpoint.Overheads{Chi: 40, Alpha: 40},
		Bus:       ttp.NewBus(2, 1),
	}
	sol, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assignment.Policies[big] != Replication {
		t.Errorf("bottleneck not replicated: %v (SL=%v)", sol.Assignment.Policies, sol.Schedule.Length)
	}
}

// TestNewAssignment: replicated processes take Replication, every other
// process the given policy.
func TestNewAssignment(t *testing.T) {
	a := NewAssignment(4, Checkpointing, replication.Assignment{2: {1, 0}})
	want := []Policy{Checkpointing, Checkpointing, Replication, Checkpointing}
	for pid, pol := range a.Policies {
		if pol != want[pid] {
			t.Errorf("process %d: %v, want %v", pid, pol, want[pid])
		}
	}
}

// TestEvaluateUnreliableKeepsSchedule: an unreachable goal still yields a
// schedule, and the system failure probability covers the
// all-replicas-fail term.
func TestEvaluateUnreliableKeepsSchedule(t *testing.T) {
	p := fig1Problem()
	p.Goal = sfp.Goal{Gamma: 1e-300, Tau: paper.Hour}
	a := NewAssignment(4, ReExecution, replication.Assignment{1: {0, 1}})
	sol, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Reliable || sol.Schedule == nil {
		t.Fatalf("reliable=%v schedule=%v, want an unreliable scheduled solution", sol.Reliable, sol.Schedule != nil)
	}
	product := p.Arch.Version(0).FailProb[1] * p.Arch.Version(1).FailProb[1]
	if sol.SystemFailureProb < product {
		t.Errorf("system failure %g below the all-replicas-fail product %g", sol.SystemFailureProb, product)
	}
}

// TestBetterRanking: feasible beats infeasible, reliable beats
// unreliable, then the shorter schedule wins.
func TestBetterRanking(t *testing.T) {
	mk := func(reliable, schedulable bool, length float64) *Solution {
		return &Solution{Reliable: reliable, Schedulable: schedulable, Schedule: &sched.Schedule{Length: length}}
	}
	cases := []struct {
		a, b *Solution
		want bool
	}{
		{mk(true, true, 300), mk(true, false, 200), true},
		{mk(true, false, 300), mk(false, true, 200), true},
		{mk(false, true, 200), mk(true, false, 300), false},
		{mk(true, true, 200), mk(true, true, 300), true},
		{mk(true, true, 300), mk(true, true, 300), false},
	}
	for i, c := range cases {
		if got := better(c.a, c.b); got != c.want {
			t.Errorf("case %d: better = %v, want %v", i, got, c.want)
		}
	}
}
