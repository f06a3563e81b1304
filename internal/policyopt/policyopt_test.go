package policyopt

import (
	"math"
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

// fig4aSetup is the Fig. 4a configuration: N1² and N2², P1/P2 on N1 and
// P3/P4 on N2, under the Fig. 1 goal on the TTP bus, with cheap
// checkpoints.
func fig4aSetup() Problem {
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

// evaluate runs the policy evaluation of p with the replicated processes
// on replication and every other process on pol.
func evaluate(p Problem, pol Policy, replicas replication.Assignment) (*Solution, error) {
	return Evaluate(p, NewAssignment(p.App.NumProcesses(), pol, replicas))
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
	p := fig4aSetup()
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
	p := fig4aSetup()
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

// TestExpensiveCheckpointsDegrade: with prohibitive overheads the planner
// falls back to n = 1 (plain re-execution semantics).
func TestExpensiveCheckpointsDegrade(t *testing.T) {
	p := fig4aSetup()
	p.Overheads = checkpoint.Overheads{Chi: 500, Alpha: 500}
	sol, err := evaluate(p, Checkpointing, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pid, n := range sol.Plan.Segments {
		if n != 1 {
			t.Errorf("process %d: %d segments despite prohibitive overheads", pid, n)
		}
	}
}

// TestCheckpointingUnreachableGoal reports unreliable instead of looping,
// and still schedules the configuration.
func TestCheckpointingUnreachableGoal(t *testing.T) {
	p := fig4aSetup()
	p.Goal = sfp.Goal{Gamma: 1e-300, Tau: paper.Hour}
	p.Bus = nil
	sol, err := evaluate(p, Checkpointing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Reliable {
		t.Error("impossible goal reported reliable")
	}
	if sol.Feasible() {
		t.Error("impossible goal reported feasible")
	}
	if sol.Schedule == nil {
		t.Error("no schedule for the unreliable configuration")
	}
}

// TestEvaluateMixed: one replicated process composes with checkpointing
// on the rest.
func TestEvaluateMixed(t *testing.T) {
	p := fig4aSetup()
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
	p := fig4aSetup()
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
	p := fig4aSetup()
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
	p := fig4aSetup()
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

// TestReplicatedProcessNeedsNoSlack: replicating P1 on both nodes removes
// it from the re-execution analysis; its replicas never extend the
// recovery quantum.
func TestReplicatedProcessNeedsNoSlack(t *testing.T) {
	sol, err := evaluate(fig4aSetup(), ReExecution, replication.Assignment{0: {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Reliable {
		t.Fatal("should be reliable")
	}
	// The expanded application has one clone.
	if len(sol.ReplicaOf) != 5 {
		t.Fatalf("expanded to %d processes, want 5", len(sol.ReplicaOf))
	}
	if sol.ReplicaOf[4] != 0 {
		t.Errorf("clone of process %d, want 0", sol.ReplicaOf[4])
	}
	// The all-replicas-fail term for P1: 1.2e-5 (on N1^2) × 1e-5 (on
	// N2^2) ≈ 1.2e-10, far below the per-node re-execution residuals, so
	// k = 1 per node still suffices.
	if sol.Ks[0] != 1 || sol.Ks[1] != 1 {
		t.Errorf("ks = %v", sol.Ks)
	}
}

// TestReplicationReliabilityMath: with every process replicated on both
// nodes, no re-executions are needed at all, and the system failure
// probability is the union of the per-process products.
func TestReplicationReliabilityMath(t *testing.T) {
	sol, err := evaluate(fig4aSetup(), ReExecution, replication.Assignment{
		0: {0, 1}, 1: {0, 1}, 2: {1, 0}, 3: {1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Reliable {
		t.Fatal("full replication should be reliable")
	}
	if sol.Ks[0] != 0 || sol.Ks[1] != 0 {
		t.Errorf("ks = %v, want zeros (nothing to re-execute)", sol.Ks)
	}
	// Union of the four pairwise products (each ≈ 1e-10, rounded up to
	// the 1e-11 grid).
	expected := 0.0
	pairs := [][2]float64{
		{1.2e-5, 1e-5}, {1.3e-5, 1.2e-5}, {1.2e-5, 1.4e-5}, {1.3e-5, 1.6e-5},
	}
	for _, pr := range pairs {
		v := math.Ceil(pr[0]*pr[1]*1e11) / 1e11
		expected = expected + v - expected*v
	}
	expected = math.Ceil(expected*1e11) / 1e11
	if math.Abs(sol.SystemFailureProb-expected) > 1e-11 {
		t.Errorf("system failure %.3g, want %.3g", sol.SystemFailureProb, expected)
	}
}

// TestReplicationCostsBusAndTime: replicas consume processor time; the
// schedule grows relative to no replication on the same mapping when the
// replicated process is off the recovery-critical node.
func TestReplicationCostsBusAndTime(t *testing.T) {
	base, err := evaluate(fig4aSetup(), ReExecution, nil)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := evaluate(fig4aSetup(), ReExecution, replication.Assignment{1: {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// P2's replica loads node N2 and duplicates message m3: the fault-free
	// load strictly grows, even though the slack may shrink.
	var baseLoad, replLoad float64
	for pid := range base.Schedule.Finish {
		baseLoad += base.Schedule.Finish[pid] - base.Schedule.Start[pid]
	}
	for pid := range repl.Schedule.Finish {
		replLoad += repl.Schedule.Finish[pid] - repl.Schedule.Start[pid]
	}
	if replLoad <= baseLoad {
		t.Errorf("replication did not add load: %v vs %v", replLoad, baseLoad)
	}
}

// TestExpandPreservesDeadlines: clones belong to the original's graph and
// deadlines are checked for them too.
func TestExpandPreservesDeadlines(t *testing.T) {
	sol, err := evaluate(fig4aSetup(), ReExecution, replication.Assignment{3: {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Schedule.WorstFinish) != 5 {
		t.Fatalf("expanded schedule covers %d processes", len(sol.Schedule.WorstFinish))
	}
	// Feasibility implies the clone met the 360 ms deadline as well.
	if sol.Schedulable {
		for pid, wf := range sol.Schedule.WorstFinish {
			if wf > paper.Fig1Deadline {
				t.Errorf("process %d worst finish %v beyond deadline yet schedulable", pid, wf)
			}
		}
	}
}

// TestReplicationUnreachableGoal: if even full replication cannot reach an
// absurd goal, the evaluation reports unreliable.
func TestReplicationUnreachableGoal(t *testing.T) {
	p := fig4aSetup()
	p.Goal = sfp.Goal{Gamma: 1e-300, Tau: paper.Hour}
	replicas := replication.Assignment{0: {0, 1}}
	sol, err := evaluate(p, ReExecution, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Reliable {
		t.Error("absurd goal reported reliable")
	}
	if sol.Schedule == nil {
		t.Error("no schedule for the unreliable configuration")
	}
	// A replica node whose selected level has no h-version is an error.
	p.Arch.Levels[1] = 7
	if _, err := evaluate(p, ReExecution, replicas); err == nil {
		t.Error("want error for a replica node without a selected version")
	}
}

// TestReplicaOfIdentityForOriginals: the first NumProcesses entries map to
// themselves.
func TestReplicaOfIdentityForOriginals(t *testing.T) {
	sol, err := evaluate(fig4aSetup(), ReExecution, replication.Assignment{2: {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 4; pid++ {
		if sol.ReplicaOf[pid] != appmodel.ProcID(pid) {
			t.Errorf("original %d mapped to %d", pid, sol.ReplicaOf[pid])
		}
	}
}
