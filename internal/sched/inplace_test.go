package sched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// checkProbe runs Probe on ws and a fresh BuildInto of the same input (on
// refBus, so the two builds share no bus state) and fails unless the
// probe's length is bit-identical to the schedule's and its verdict equals
// Schedule.Schedulable. It returns the verdict.
func checkProbe(t *testing.T, label string, in sched.Input, ws *sched.Workspace, refBus sched.Bus) bool {
	t.Helper()
	length, ok, err := sched.Probe(in, ws)
	if err != nil {
		t.Fatalf("%s: probe: %v", label, err)
	}
	refIn := in
	refIn.Bus = refBus
	ref, err := sched.BuildInto(refIn, nil)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if length != ref.Length {
		t.Fatalf("%s: probe length %v, fresh build %v", label, length, ref.Length)
	}
	if want := ref.Schedulable(in.App); ok != want {
		t.Fatalf("%s: probe verdict %v, fresh build %v", label, ok, want)
	}
	return ok
}

// TestProbeMatchesBuildInto drives a shared workspace through a long
// random walk of single-process remaps (with hardening-level and k
// perturbations mixed in, mimicking RedundancyOpt probes) and checks every
// Probe against a fresh BuildInto of the same input. The "extras" variant
// runs a three-graph application with ExtraExec, Recovery and Release set,
// so the release-mode selection and the overridden recovery cost are
// probed too. The walk must meet both verdicts.
func TestProbeMatchesBuildInto(t *testing.T) {
	verdicts := map[bool]int{}
	for _, seed := range []int64{1, 7, 42} {
		for _, model := range []sched.SlackModel{sched.SlackShared, sched.SlackPerProcess} {
			for _, extras := range []bool{false, true} {
				cfg := taskgen.DefaultConfig(seed, 16, 1e-11, 25)
				if extras {
					cfg.NumGraphs = 3
				}
				inst, err := taskgen.Generate(cfg)
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}
				enum := platform.NewEnumerator(inst.Platform)
				nNodes := 3
				if enum.MaxNodes() < nNodes {
					nNodes = enum.MaxNodes()
				}
				ar := enum.Arch(nNodes, 0)
				if ar == nil {
					t.Fatalf("seed %d: no %d-node architecture", seed, nNodes)
				}
				n := inst.App.NumProcesses()
				rng := rand.New(rand.NewSource(seed * 1013))
				mapping := make([]int, n)
				for i := range mapping {
					mapping[i] = rng.Intn(len(ar.Nodes))
				}
				ks := make([]int, len(ar.Nodes))
				for j := range ks {
					ks[j] = rng.Intn(3)
				}
				in := sched.Input{App: inst.App, Arch: ar, Mapping: mapping, Ks: ks, Model: model,
					Bus: ttp.NewBus(len(ar.Nodes), 2)}
				if extras {
					in.ExtraExec = make([]float64, n)
					in.Recovery = make([]float64, n)
					in.Release = make([]float64, n)
					for pid := 0; pid < n; pid++ {
						in.ExtraExec[pid] = 2 * rng.Float64()
						in.Recovery[pid] = 5 + 20*rng.Float64()
						in.Release[pid] = 40 * rng.Float64()
					}
				}
				refBus := ttp.NewBus(len(ar.Nodes), 2)

				var ws sched.Workspace
				iters := 1000
				if testing.Short() {
					iters = 100
				}
				for it := 0; it < iters; it++ {
					// One tabu-style move per iteration…
					moved := rng.Intn(n)
					mapping[moved] = rng.Intn(len(ar.Nodes))
					// …and occasionally a hardening probe (level or k change).
					if rng.Intn(4) == 0 {
						j := rng.Intn(len(ar.Nodes))
						nd := ar.Nodes[j]
						ar.Levels[j] = nd.MinLevel() + rng.Intn(nd.MaxLevel()-nd.MinLevel()+1)
					}
					if rng.Intn(4) == 0 {
						ks[rng.Intn(len(ks))] = rng.Intn(3)
					}
					label := fmt.Sprintf("seed %d model %v extras %v iter %d", seed, model, extras, it)
					verdicts[checkProbe(t, label, in, &ws, refBus)]++
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("the walk met verdicts %v, want both", verdicts)
	}
}

// TestProbeSingleGraphMiss gives a three-graph application deadlines that
// only one graph misses, by a margin either side of Schedulable's 1e-9
// tolerance, and checks that the probe's verdict follows.
func TestProbeSingleGraphMiss(t *testing.T) {
	cfg := taskgen.DefaultConfig(11, 18, 1e-11, 25)
	cfg.NumGraphs = 3
	inst, err := taskgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := inst.App
	ar := platform.NewEnumerator(inst.Platform).Arch(2, 0)
	if ar == nil {
		t.Fatal("no 2-node architecture")
	}
	mapping := make([]int, app.NumProcesses())
	for i := range mapping {
		mapping[i] = i % len(ar.Nodes)
	}
	in := sched.Input{App: app, Arch: ar, Mapping: mapping, Ks: []int{1, 2}}
	s, err := sched.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	// worst[g] is graph g's latest worst-case finish.
	worst := make([]float64, len(app.Graphs))
	for g, gr := range app.Graphs {
		for _, pid := range gr.Procs {
			worst[g] = max(worst[g], s.WorstFinish[pid])
		}
	}
	for _, c := range []struct {
		slack float64 // graph 1's deadline minus its worst-case finish
		want  bool
	}{{-1, false}, {-2e-9, false}, {-5e-10, true}, {0, true}} {
		for g := range app.Graphs {
			app.Graphs[g].Deadline = worst[g] + 100
		}
		app.Graphs[1].Deadline = worst[1] + c.slack
		// A fresh workspace per case: a workspace assumes its application
		// is not mutated while bound.
		var ws sched.Workspace
		if got := checkProbe(t, fmt.Sprintf("slack %g", c.slack), in, &ws, nil); got != c.want {
			t.Errorf("graph 1 deadline at worst%+g: verdict %v, want %v", c.slack, got, c.want)
		}
	}
}

// TestProbeColdStart checks the degenerate paths: a fresh workspace, and a
// workspace last bound to a different application.
func TestProbeColdStart(t *testing.T) {
	instA, err := taskgen.Generate(taskgen.DefaultConfig(5, 12, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	instB, err := taskgen.Generate(taskgen.DefaultConfig(6, 14, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	var ws sched.Workspace
	for _, inst := range []*taskgen.Instance{instA, instB, instA} {
		ar := platform.NewEnumerator(inst.Platform).Arch(2, 0)
		if ar == nil {
			t.Fatal("no 2-node architecture")
		}
		n := inst.App.NumProcesses()
		mapping := make([]int, n)
		for i := range mapping {
			mapping[i] = i % len(ar.Nodes)
		}
		ks := make([]int, len(ar.Nodes))
		checkProbe(t, "cold start", sched.Input{App: inst.App, Arch: ar, Mapping: mapping, Ks: ks}, &ws, nil)
	}
	// A nil workspace probes on a scratch one.
	in := sched.Input{App: instA.App, Arch: platform.NewEnumerator(instA.Platform).Arch(2, 0),
		Mapping: make([]int, instA.App.NumProcesses()), Ks: []int{0, 0}}
	checkProbe(t, "nil workspace", in, nil, nil)
}
