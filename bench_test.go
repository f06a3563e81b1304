package repro_test

import (
	"context"
	"testing"

	"repro/ftes"
	"repro/internal/cc"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/evalengine"
	"repro/internal/execsim"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/mapping"
	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/policyopt"
	"repro/internal/prob"
	"repro/internal/redundancy"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/taskgen"
	"repro/internal/ttp"
	"repro/internal/wcetan"
)

// ---------------------------------------------------------------------
// Experiment E1/E3 — the paper's motivational examples (Figs. 1, 3, 4).
// ---------------------------------------------------------------------

// BenchmarkFig3 runs the full design strategy on the Fig. 3 example
// (experiment E3): the result must be the middle h-version at cost 20.
func BenchmarkFig3(b *testing.B) {
	app := paper.Fig3Application()
	pl := paper.Fig3Platform()
	opts := core.Options{Goal: sfp.Goal{Gamma: paper.Fig3Gamma, Tau: paper.Hour}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(app, pl, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible || res.Cost != 20 {
			b.Fatalf("unexpected result: feasible=%v cost=%v", res.Feasible, res.Cost)
		}
	}
}

// BenchmarkFig4Alternatives evaluates the five architecture alternatives
// of Fig. 4 through RedundancyOpt (experiment E1).
func BenchmarkFig4Alternatives(b *testing.B) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	goal := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}
	alternatives := []struct {
		nodes   []int
		mapping []int
	}{
		{[]int{0, 1}, []int{0, 0, 1, 1}}, // (a)
		{[]int{0}, []int{0, 0, 0, 0}},    // (b,d)
		{[]int{1}, []int{0, 0, 0, 0}},    // (c,e)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, alt := range alternatives {
			// Build the architecture fresh each iteration.
			archNodes := collect(pl, alt.nodes)
			p := redundancy.Problem{
				App:     app,
				Arch:    newArch(archNodes),
				Mapping: alt.mapping,
				Goal:    goal,
				Bus:     ttp.NewBus(len(archNodes), pl.Bus.SlotLen),
			}
			if _, err := redundancy.RedundancyOpt(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Experiment E4 — Appendix A.2 SFP computation.
// ---------------------------------------------------------------------

// BenchmarkAppendixA2 measures the SFP analysis on the Appendix A.2
// configuration, asserting the digit-exact reliability.
func BenchmarkAppendixA2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := sfp.NewAnalysis([][]float64{{1.2e-5, 1.3e-5}, {1.2e-5, 1.3e-5}}, 360, 4)
		if err != nil {
			b.Fatal(err)
		}
		if rel := a.SystemReliability([]int{1, 1}, paper.Hour); rel != 0.99999040004 {
			b.Fatalf("reliability %.11f", rel)
		}
	}
}

// BenchmarkSFPNode measures the per-node analysis setup for a 20-process
// node at the default re-execution cap.
func BenchmarkSFPNode(b *testing.B) {
	probs := make([]float64, 20)
	for i := range probs {
		probs[i] = 1e-5 + float64(i)*1e-6
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sfp.NewNode(probs, sfp.DefaultMaxK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompleteHomogeneous measures the f-fault scenario DP.
func BenchmarkCompleteHomogeneous(b *testing.B) {
	probs := make([]float64, 40)
	for i := range probs {
		probs[i] = 1e-4
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prob.CompleteHomogeneous(probs, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Experiments E5–E8 — the Fig. 6 acceptance sweeps (one representative
// point each; cmd/paperbench regenerates the full figures).
// ---------------------------------------------------------------------

func benchPoint(b *testing.B, pt experiments.Point) {
	b.Helper()
	cfg := experiments.Config{Apps: 2, Procs: []int{20}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Acceptance(context.Background(), cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6a measures the HPD-sweep point HPD=25% (E5).
func BenchmarkFig6a(b *testing.B) { benchPoint(b, experiments.Point{SER: 1e-11, HPD: 25, ArC: 20}) }

// BenchmarkFig6b measures the ArC=15 row point (E6).
func BenchmarkFig6b(b *testing.B) { benchPoint(b, experiments.Point{SER: 1e-11, HPD: 25, ArC: 15}) }

// BenchmarkFig6c measures the SER=1e-12 point at HPD=5% (E7).
func BenchmarkFig6c(b *testing.B) { benchPoint(b, experiments.Point{SER: 1e-12, HPD: 5, ArC: 20}) }

// BenchmarkFig6d measures the SER=1e-10 point at HPD=100% (E8).
func BenchmarkFig6d(b *testing.B) { benchPoint(b, experiments.Point{SER: 1e-10, HPD: 100, ArC: 20}) }

// ---------------------------------------------------------------------
// Experiment E9 — the cruise-controller case study.
// ---------------------------------------------------------------------

// BenchmarkCruiseController runs OPT on the CC and asserts the paper's
// qualitative outcome.
func BenchmarkCruiseController(b *testing.B) {
	inst, err := cc.Instance()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(inst.App, inst.Platform, core.Options{Goal: inst.Goal, Strategy: core.OPT})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("CC should be feasible under OPT")
		}
	}
}

// ---------------------------------------------------------------------
// Experiment E10 — ablations.
// ---------------------------------------------------------------------

// BenchmarkAblationSlackShared and ...PerProcess compare the two recovery
// slack accountings on a full OPT run of a synthetic instance.
func BenchmarkAblationSlackShared(b *testing.B)     { benchSlack(b, sched.SlackShared) }
func BenchmarkAblationSlackPerProcess(b *testing.B) { benchSlack(b, sched.SlackPerProcess) }

func benchSlack(b *testing.B, model sched.SlackModel) {
	b.Helper()
	inst, err := taskgen.Generate(taskgen.DefaultConfig(7, 20, 1e-10, 25))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(inst.App, inst.Platform, core.Options{
			Goal: inst.Goal, Strategy: core.OPT, Model: model, MaxCost: 20,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGradient measures the gradient-guided re-execution
// assignment study.
func BenchmarkAblationGradient(b *testing.B) {
	cfg := experiments.Config{Apps: 2, Procs: []int{20}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGradient(context.Background(), cfg, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Experiment E11 — Monte-Carlo validation of the SFP analysis.
// ---------------------------------------------------------------------

// BenchmarkMonteCarloValidation measures a 100k-iteration fault-injection
// campaign.
func BenchmarkMonteCarloValidation(b *testing.B) {
	c := faultsim.Campaign{
		NodeProbs:  [][]float64{{0.02, 0.03}, {0.04}},
		Ks:         []int{1, 1},
		Iterations: 100000,
		Seed:       1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Component micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkScheduleBuild measures list scheduling of a 40-process
// application on a 4-node architecture.
func BenchmarkScheduleBuild(b *testing.B) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(5, 40, 1e-11, 25))
	if err != nil {
		b.Fatal(err)
	}
	archNodes := collect(inst.Platform, []int{0, 1, 2, 3})
	ar := newArch(archNodes)
	m := make([]int, 40)
	for i := range m {
		m[i] = i % 4
	}
	in := sched.Input{
		App:     inst.App,
		Arch:    ar,
		Mapping: m,
		Ks:      []int{2, 2, 2, 2},
		Bus:     ttp.NewBus(4, inst.Platform.Bus.SlotLen),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Build(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMappingOptimize measures a full tabu-search run on a 20-process
// application over 2 nodes.
func BenchmarkMappingOptimize(b *testing.B) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(6, 20, 1e-11, 25))
	if err != nil {
		b.Fatal(err)
	}
	archNodes := collect(inst.Platform, []int{0, 1})
	p := redundancy.Problem{
		App:  inst.App,
		Arch: newArch(archNodes),
		Goal: inst.Goal,
		Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh evaluator per iteration measures the cold-start cost the
		// design strategy pays per run, not a warm-cache replay.
		ev := evalengine.New(p)
		if _, err := mapping.Optimize(ev, nil, mapping.ArchitectureCost, mapping.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// collect returns pointers to the platform nodes with the given indices.
func collect(pl *platform.Platform, idx []int) []*platform.Node {
	out := make([]*platform.Node, len(idx))
	for i, j := range idx {
		out[i] = &pl.Nodes[j]
	}
	return out
}

// newArch wraps platform.NewArchitecture for brevity.
func newArch(nodes []*platform.Node) *platform.Architecture {
	return platform.NewArchitecture(nodes)
}

// BenchmarkTTPBus measures slot booking throughput.
func BenchmarkTTPBus(b *testing.B) {
	bus := ttp.NewBus(4, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			bus.Reset()
		}
		bus.Schedule(i%4, float64(i%7))
	}
}

// ---------------------------------------------------------------------
// Experiments E12/E13 — checkpointing and replication extensions.
// ---------------------------------------------------------------------

// BenchmarkCheckpointEvaluate measures the checkpointed evaluation of the
// Fig. 4a configuration (experiment E12).
func BenchmarkCheckpointEvaluate(b *testing.B) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	goal := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ar := newArch(collect(pl, []int{0, 1}))
		ar.Levels = []int{2, 2}
		sol, err := ftes.EvaluateCheckpointing(app, ar, []int{0, 0, 1, 1}, goal,
			ftes.CheckpointOverheads{Chi: 1, Alpha: 1}, ttp.NewBus(2, pl.Bus.SlotLen), 8)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible() {
			b.Fatal("checkpointing should be feasible on Fig. 4a")
		}
	}
}

// BenchmarkReplicationEvaluate measures the replication evaluation with
// one replicated process (experiment E13).
func BenchmarkReplicationEvaluate(b *testing.B) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	goal := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ar := newArch(collect(pl, []int{0, 1}))
		ar.Levels = []int{2, 2}
		_, err := ftes.EvaluateReplication(ftes.ReplicationProblem{
			App: app, Arch: ar, Mapping: []int{0, 0, 1, 1},
			Replicas: ftes.ReplicaAssignment{1: {0, 1}},
			Goal:     goal,
			Bus:      ttp.NewBus(2, pl.Bus.SlotLen),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyComparison measures the three-policy study on a small
// batch.
func BenchmarkPolicyComparison(b *testing.B) {
	cfg := experiments.Config{Apps: 2, Procs: []int{20}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolicyComparison(context.Background(), cfg, 1e-10, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCETAnalysis measures the structured-program WCET analysis.
func BenchmarkWCETAnalysis(b *testing.B) {
	prog := wcetan.Program{Name: "p", Root: wcetan.Seq{
		wcetan.Block{N: 1000},
		wcetan.Loop{Bound: 100, TestCycles: 5, Body: wcetan.Seq{
			wcetan.Block{N: 200},
			wcetan.Branch{TestCycles: 10, Alternatives: []wcetan.Node{
				wcetan.Block{N: 500}, wcetan.Block{N: 100},
			}},
		}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prog.WCETCycles(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyOptimize measures the greedy policy-assignment search on
// the Fig. 4a configuration.
func BenchmarkPolicyOptimize(b *testing.B) {
	pl := paper.Fig1Platform()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ar := newArch(collect(pl, []int{0, 1}))
		ar.Levels = []int{2, 2}
		_, err := policyopt.Optimize(policyopt.Problem{
			App:       paper.Fig1Application(),
			Arch:      ar,
			Mapping:   []int{0, 0, 1, 1},
			Goal:      sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
			Overheads: checkpoint.Overheads{Chi: 1, Alpha: 1},
			Bus:       ttp.NewBus(2, pl.Bus.SlotLen),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecSim measures one simulated iteration of the Fig. 4a
// system.
func BenchmarkExecSim(b *testing.B) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	ar := newArch(collect(pl, []int{0, 1}))
	ar.Levels = []int{2, 2}
	mapping := []int{0, 0, 1, 1}
	static, err := sched.Build(sched.Input{
		App: app, Arch: ar, Mapping: mapping, Ks: []int{1, 1},
		Bus: ttp.NewBus(2, pl.Bus.SlotLen),
	})
	if err != nil {
		b.Fatal(err)
	}
	in := execsim.Input{
		App: app, Arch: ar, Mapping: mapping, Ks: []int{1, 1},
		Bus: ttp.NewBus(2, pl.Bus.SlotLen), Static: static,
		Faults: []int{0, 1, 0, 1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := execsim.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}
