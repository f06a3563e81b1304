package core

import (
	"reflect"
	"testing"

	"repro/internal/appmodel"
	"repro/internal/cc"
	"repro/internal/paper"
	"repro/internal/platform"
)

// TestWorkersIgnored pins the deprecated Options.Workers as a no-op: a run
// with Workers set returns the same design and the same evaluation
// counters as the zero value, on the Fig. 1 example and the cruise
// controller.
func TestWorkersIgnored(t *testing.T) {
	inst, err := cc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	ccOpts := fig1Opts(OPT)
	ccOpts.Goal = inst.Goal
	for _, c := range []struct {
		name string
		app  *appmodel.Application
		pl   *platform.Platform
		opts Options
	}{
		{"fig1", paper.Fig1Application(), paper.Fig1Platform(), fig1Opts(OPT)},
		{"cc", inst.App, inst.Platform, ccOpts},
	} {
		want, err := Run(c.app, c.pl, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		opts := c.opts
		opts.Workers = 4
		got, err := Run(c.app, c.pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Feasible || !got.Feasible {
			t.Fatalf("%s: feasible %v, want %v and true", c.name, got.Feasible, want.Feasible)
		}
		if got.Cost != want.Cost || got.Schedule.Length != want.Schedule.Length ||
			!reflect.DeepEqual(got.Arch.Nodes, want.Arch.Nodes) ||
			!reflect.DeepEqual(got.Arch.Levels, want.Arch.Levels) ||
			!reflect.DeepEqual(got.Ks, want.Ks) ||
			!reflect.DeepEqual(got.Mapping, want.Mapping) {
			t.Errorf("%s: Workers 4 designed cost %v, levels %v, ks %v, mapping %v, SL %v; want cost %v, levels %v, ks %v, mapping %v, SL %v",
				c.name, got.Cost, got.Arch.Levels, got.Ks, got.Mapping, got.Schedule.Length,
				want.Cost, want.Arch.Levels, want.Ks, want.Mapping, want.Schedule.Length)
		}
		// The per-layer wall times differ from run to run; every counter
		// must not.
		gs, ws := got.EvalStats, want.EvalStats
		gs.ReExecTime, gs.SchedTime, ws.ReExecTime, ws.SchedTime = 0, 0, 0, 0
		if gs != ws || got.ArchsExplored != want.ArchsExplored || got.Evaluations != want.Evaluations {
			t.Errorf("%s: Workers 4 counted %+v, %d archs, %d evaluations; want %+v, %d, %d",
				c.name, gs, got.ArchsExplored, got.Evaluations, ws, want.ArchsExplored, want.Evaluations)
		}
	}
}
