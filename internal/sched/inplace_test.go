package sched_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// schedulesIdentical reports whether two schedules are bit-for-bit equal,
// treating NaN (the intra-node message marker) as equal to NaN.
func schedulesIdentical(a, b *sched.Schedule) bool {
	feq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.IsNaN(x[i]) && math.IsNaN(y[i]) {
				continue
			}
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !feq(a.Start, b.Start) || !feq(a.Finish, b.Finish) || !feq(a.WorstFinish, b.WorstFinish) ||
		!feq(a.MsgStart, b.MsgStart) || !feq(a.MsgEnd, b.MsgEnd) || a.Length != b.Length {
		return false
	}
	if len(a.NodeOrder) != len(b.NodeOrder) {
		return false
	}
	for j := range a.NodeOrder {
		if len(a.NodeOrder[j]) != len(b.NodeOrder[j]) {
			return false
		}
		for k := range a.NodeOrder[j] {
			if a.NodeOrder[j][k] != b.NodeOrder[j][k] {
				return false
			}
		}
	}
	return true
}

// TestBuildInPlaceMatchesBuildInto drives a shared workspace through a
// long random walk of single-process remaps (with hardening-level and k
// perturbations mixed in, mimicking RedundancyOpt probes) and checks that
// every BuildInPlace result is bit-identical to a fresh BuildInto of the
// same input.
func TestBuildInPlaceMatchesBuildInto(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, model := range []sched.SlackModel{sched.SlackShared, sched.SlackPerProcess} {
			inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, 16, 1e-11, 25))
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
			bus := ttp.NewBus(len(ar.Nodes), 2)
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
				in := sched.Input{App: inst.App, Arch: ar, Mapping: mapping, Ks: ks, Bus: bus, Model: model}
				inc, err := sched.BuildInPlace(in, &ws)
				if err != nil {
					t.Fatalf("seed %d iter %d: in place: %v", seed, it, err)
				}
				refIn := in
				refIn.Bus = refBus
				ref, err := sched.BuildInto(refIn, nil)
				if err != nil {
					t.Fatalf("seed %d iter %d: reference: %v", seed, it, err)
				}
				if !schedulesIdentical(inc, ref) {
					t.Fatalf("seed %d iter %d (model %v): in-place schedule diverges from fresh build\nmapping=%v levels=%v ks=%v",
						seed, it, model, mapping, ar.Levels, ks)
				}
			}
		}
	}
}

// TestBuildInPlaceColdStart checks the degenerate paths: a fresh
// workspace, and a workspace last bound to a different application.
func TestBuildInPlaceColdStart(t *testing.T) {
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
		in := sched.Input{App: inst.App, Arch: ar, Mapping: mapping, Ks: ks}
		inc, err := sched.BuildInPlace(in, &ws)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sched.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		if !schedulesIdentical(inc, ref) {
			t.Fatal("cold-start in-place build diverges from fresh build")
		}
	}
}

// TestBuildInPlaceOwnsSchedule: BuildInPlace hands out the workspace's
// own schedule, overwritten by the next in-place build,
// while BuildInto on the same workspace returns schedules that no later
// build touches — the mix the evaluation engine runs (length-only probes
// plus full rebuilds of the solutions a search walks).
func TestBuildInPlaceOwnsSchedule(t *testing.T) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(9, 16, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	ar := platform.NewEnumerator(inst.Platform).Arch(2, 0)
	if ar == nil {
		t.Fatal("no 2-node architecture")
	}
	n := inst.App.NumProcesses()
	rng := rand.New(rand.NewSource(9))
	mapping := make([]int, n)
	ks := []int{1, 2}
	bus := ttp.NewBus(len(ar.Nodes), 2)
	refBus := ttp.NewBus(len(ar.Nodes), 2)

	var ws sched.Workspace
	var own *sched.Schedule
	type keptPair struct{ full, ref *sched.Schedule }
	var kept []keptPair
	for it := 0; it < 200; it++ {
		mapping[rng.Intn(n)] = rng.Intn(len(ar.Nodes))
		in := sched.Input{App: inst.App, Arch: ar, Mapping: mapping, Ks: ks, Bus: bus}
		refIn := in
		refIn.Bus = refBus
		ref, err := sched.BuildInto(refIn, nil)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := sched.BuildInPlace(in, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if own != nil && inc != own {
			t.Fatalf("iter %d: BuildInPlace returned a new schedule, not the workspace's", it)
		}
		own = inc
		if !schedulesIdentical(inc, ref) {
			t.Fatalf("iter %d: in-place schedule diverges from fresh build", it)
		}
		if it%5 == 0 {
			full, err := sched.BuildInto(in, &ws)
			if err != nil {
				t.Fatal(err)
			}
			if full == inc {
				t.Fatalf("iter %d: BuildInto returned the workspace's schedule", it)
			}
			kept = append(kept, keptPair{full, ref})
		}
	}
	for i, k := range kept {
		if !schedulesIdentical(k.full, k.ref) {
			t.Fatalf("kept schedule %d was changed by later builds on its workspace", i)
		}
	}
}
