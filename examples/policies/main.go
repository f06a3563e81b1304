// Fault-tolerance policy comparison: evaluates the same mapped
// application under the paper's re-execution recovery, under the
// checkpointing extension, and under active replication, and prints the
// worst-case schedules side by side. This is the trade-off space of the
// authors' companion work (TVLSI 2009) built on top of this paper's
// analysis.
//
//	go run ./examples/policies
package main

import (
	"fmt"
	"log"
	"os"

	"repro/ftes"
	"repro/internal/checkpoint"
	"repro/internal/gantt"
	"repro/internal/paper"
	"repro/internal/policyopt"
	"repro/internal/redundancy"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

func main() {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	goal := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}
	ar := ftes.NewArchitecture([]*ftes.Node{&pl.Nodes[0], &pl.Nodes[1]})
	ar.Levels = []int{2, 2}
	mapping := []int{0, 0, 1, 1} // the Fig. 4a split

	fmt.Println("Fig. 1 application on N1^2 + N2^2, deadline 360 ms, rho = 1 - 1e-5/hour")
	fmt.Println()

	// --- Re-execution (the paper) ------------------------------------
	reexec, err := redundancy.Evaluate(redundancy.Problem{
		App: app, Arch: ar, Mapping: mapping, Goal: goal,
		Bus: ttp.NewBus(2, pl.Bus.SlotLen),
	}, ar.Levels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-execution:   k=%v, worst case %.0f ms, feasible=%v\n",
		reexec.Ks, reexec.Schedule.Length, reexec.Feasible())

	// --- Checkpointing (χ = α = 1 ms) ---------------------------------
	cp, err := ftes.EvaluateCheckpointing(app, ar, mapping, goal,
		ftes.CheckpointOverheads{Chi: 1, Alpha: 1}, ttp.NewBus(2, pl.Bus.SlotLen), 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointing:  k=%v, segments=%v, worst case %.0f ms, feasible=%v\n",
		cp.Ks, cp.Plan.Segments, cp.Schedule.Length, cp.Feasible())

	// --- Active replication of the critical producer P2 ---------------
	repl, err := ftes.EvaluateReplication(ftes.ReplicationProblem{
		App: app, Arch: ar, Mapping: mapping,
		Replicas: ftes.ReplicaAssignment{1: {0, 1}}, // P2 on both nodes
		Goal:     goal,
		Bus:      ttp.NewBus(2, pl.Bus.SlotLen),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replication:    k=%v (P2 duplicated), worst case %.0f ms, feasible=%v\n",
		repl.Ks, repl.Schedule.Length, repl.Feasible())

	// --- Optimized per-process assignment ------------------------------
	opt, err := policyopt.Optimize(policyopt.Problem{
		App:       app,
		Arch:      ar,
		Mapping:   mapping,
		Goal:      goal,
		Overheads: checkpoint.Overheads{Chi: 1, Alpha: 1},
		Bus:       ttp.NewBus(2, pl.Bus.SlotLen),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy opt:     %v, worst case %.0f ms, feasible=%v\n",
		opt.Assignment.Policies, opt.Schedule.Length, opt.Feasible())

	fmt.Println()
	fmt.Println("re-execution schedule (dots are shared recovery slack):")
	chart := &gantt.Chart{
		App:      app,
		Arch:     ar,
		Mapping:  mapping,
		Schedule: reexec.Schedule,
		Deadline: paper.Fig1Deadline,
	}
	if err := chart.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
