package checkpoint_test

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/policyopt"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

// evaluate runs the checkpointing evaluation of the Fig. 1 application:
// the policy evaluation with every process on checkpointing.
func evaluate(ar *platform.Architecture, mapping []int, goal sfp.Goal, o checkpoint.Overheads, bus sched.Bus, maxSegments int) (*policyopt.Solution, error) {
	app := paper.Fig1Application()
	return policyopt.Evaluate(policyopt.Problem{
		App: app, Arch: ar, Mapping: mapping, Goal: goal,
		Overheads: o, Bus: bus, MaxSegments: maxSegments,
	}, policyopt.NewAssignment(app.NumProcesses(), policyopt.Checkpointing, nil))
}

// fig4aSetup is the Fig. 4a configuration: N1² and N2², P1/P2 on N1 and
// P3/P4 on N2.
func fig4aSetup() (*platform.Platform, *platform.Architecture, []int) {
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture([]*platform.Node{&pl.Nodes[0], &pl.Nodes[1]})
	ar.Levels = []int{2, 2}
	return pl, ar, []int{0, 0, 1, 1}
}

// TestEvaluateCheckpointingBeatsReExecution: on the Fig. 4a architecture
// with cheap checkpoints, checkpointing yields a shorter worst-case
// schedule than plain re-execution because the recovery quantum shrinks
// from a whole process to one segment.
func TestEvaluateCheckpointingBeatsReExecution(t *testing.T) {
	pl, ar, mapping := fig4aSetup()
	goal := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}

	sol, err := evaluate(ar, mapping, goal, checkpoint.Overheads{Chi: 1, Alpha: 1}, ttp.NewBus(2, pl.Bus.SlotLen), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible() {
		t.Fatalf("checkpointing should be feasible: %+v", sol)
	}
	// Plain re-execution on the same configuration: worst case 340 ms
	// (see the sched tests). Checkpointing must beat it.
	if sol.Schedule.Length >= 340 {
		t.Errorf("checkpointed worst case %v, want < 340 (re-execution)", sol.Schedule.Length)
	}
	usedSegments := false
	for _, n := range sol.Plan.Segments {
		if n > 1 {
			usedSegments = true
		}
	}
	if !usedSegments {
		t.Error("no process was checkpointed")
	}
}

// TestEvaluateValidation rejects an invalid goal and an invalid mapping.
func TestEvaluateValidation(t *testing.T) {
	_, ar, mapping := fig4aSetup()
	if _, err := evaluate(ar, mapping, sfp.Goal{}, checkpoint.Overheads{}, nil, 8); err == nil {
		t.Error("want error for invalid goal")
	}
	goal := sfp.Goal{Gamma: 1e-5, Tau: paper.Hour}
	if _, err := evaluate(ar, []int{9, 9, 9, 9}, goal, checkpoint.Overheads{}, nil, 8); err == nil {
		t.Error("want error for invalid mapping")
	}
	// A node whose selected level has no h-version is an error even when
	// no process is mapped to it.
	ar.Levels[1] = 7
	if _, err := evaluate(ar, []int{0, 0, 0, 0}, goal, checkpoint.Overheads{}, nil, 8); err == nil {
		t.Error("want error for a node without a selected version")
	}
}
