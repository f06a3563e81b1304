package replication_test

import (
	"math"
	"testing"

	"repro/internal/appmodel"
	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/policyopt"
	"repro/internal/replication"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

// problem is a replication configuration with the goal and bus it is
// evaluated under.
type problem struct {
	replication.Problem
	Goal sfp.Goal
	Bus  sched.Bus
}

// evaluate analyses and schedules a replication configuration the way the
// module does: the policy evaluation with the replicated processes on
// replication and every other process on re-execution.
func evaluate(p problem) (*policyopt.Solution, error) {
	return policyopt.Evaluate(policyopt.Problem{
		App: p.App, Arch: p.Arch, Mapping: p.Mapping, Goal: p.Goal, Bus: p.Bus,
	}, policyopt.NewAssignment(p.App.NumProcesses(), policyopt.ReExecution, p.Replicas))
}

func fig1Problem(replicas replication.Assignment) problem {
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]})
	ar.Levels = []int{2, 2}
	return problem{
		Problem: replication.Problem{
			App:      paper.Fig1Application(),
			Arch:     ar,
			Mapping:  []int{0, 0, 1, 1},
			Replicas: replicas,
		},
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Bus:  ttp.NewBus(2, pl.Bus.SlotLen),
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
			p := fig1Problem(nil)
			c.mut(&p.Problem)
			if err := p.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestNoReplicationMatchesReExecution: an empty assignment must reproduce
// the plain re-execution analysis (k = 1 per node on Fig. 4a).
func TestNoReplicationMatchesReExecution(t *testing.T) {
	sol, err := evaluate(fig1Problem(nil))
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

// TestReplicatedProcessNeedsNoSlack: replicating P1 on both nodes removes
// it from the re-execution analysis; its replicas never extend the
// recovery quantum.
func TestReplicatedProcessNeedsNoSlack(t *testing.T) {
	p := fig1Problem(replication.Assignment{0: {0, 1}})
	sol, err := evaluate(p)
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
	p := fig1Problem(replication.Assignment{
		0: {0, 1}, 1: {0, 1}, 2: {1, 0}, 3: {1, 0},
	})
	p.Mapping = []int{0, 0, 1, 1}
	sol, err := evaluate(p)
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
	base, err := evaluate(fig1Problem(nil))
	if err != nil {
		t.Fatal(err)
	}
	repl, err := evaluate(fig1Problem(replication.Assignment{1: {0, 1}}))
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
	p := fig1Problem(replication.Assignment{3: {1, 0}})
	sol, err := evaluate(p)
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
	p := fig1Problem(replication.Assignment{0: {0, 1}})
	p.Goal = sfp.Goal{Gamma: 1e-300, Tau: paper.Hour}
	sol, err := evaluate(p)
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
	if _, err := evaluate(p); err == nil {
		t.Error("want error for a replica node without a selected version")
	}
}

// TestReplicaOfIdentityForOriginals: the first NumProcesses entries map to
// themselves.
func TestReplicaOfIdentityForOriginals(t *testing.T) {
	sol, err := evaluate(fig1Problem(replication.Assignment{2: {1, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 4; pid++ {
		if sol.ReplicaOf[pid] != appmodel.ProcID(pid) {
			t.Errorf("original %d mapped to %d", pid, sol.ReplicaOf[pid])
		}
	}
}
