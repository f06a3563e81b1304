package mapping

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/evalengine"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// sameSchedule reports whether two schedules are bit-for-bit equal in
// every array (NaN message markers included) and in Length.
func sameSchedule(a, b *sched.Schedule) bool {
	feq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !feq(a.Start, b.Start) || !feq(a.Finish, b.Finish) || !feq(a.WorstFinish, b.WorstFinish) ||
		!feq(a.MsgStart, b.MsgStart) || !feq(a.MsgEnd, b.MsgEnd) ||
		math.Float64bits(a.Length) != math.Float64bits(b.Length) || len(a.NodeOrder) != len(b.NodeOrder) {
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

// TestResultsCarrySchedule: every Result — a finished search or the
// partial of a canceled one — carries its solution's full schedule,
// bit-identical to a fresh sched.BuildInto of its (mapping, levels, ks).
// The schedules are checked only after all runs have finished on the
// shared engine, so a result that still pointed into the engine's
// workspace would show the later builds.
func TestResultsCarrySchedule(t *testing.T) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(3, 14, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	ar := platform.NewEnumerator(inst.Platform).Arch(3, 0)
	if ar == nil {
		t.Fatal("no 3-node architecture")
	}
	slot := inst.Platform.Bus.SlotLen
	p := redundancy.Problem{App: inst.App, Arch: ar, Goal: inst.Goal, Bus: ttp.NewBus(len(ar.Nodes), slot)}
	ev := evalengine.New(p)

	type run struct {
		label string
		res   *Result
	}
	var runs []run
	canceled := 0
	add := func(label string, res *Result, err error) {
		t.Helper()
		if err != nil {
			if !errors.Is(err, runctl.ErrCanceled) {
				t.Fatalf("%s: %v", label, err)
			}
			canceled++
		}
		if res == nil {
			t.Fatalf("%s: no result", label)
		}
		runs = append(runs, run{label, res})
	}
	for _, cf := range []CostFunction{ScheduleLength, ArchitectureCost} {
		res, err := OptimizeContext(context.Background(), ev, nil, cf, Params{})
		add(fmt.Sprintf("%v", cf), res, err)
		for after := int64(0); after < 6; after++ {
			res, err := OptimizeContext(newCancelAfter(after), ev, nil, cf, Params{})
			add(fmt.Sprintf("%v canceled after %d", cf, after), res, err)
		}
	}
	if canceled == 0 {
		t.Fatal("no canceled partial results")
	}

	for _, r := range runs {
		sol := r.res.Solution
		if sol.Schedule == nil {
			t.Errorf("%s: result carries no schedule", r.label)
			continue
		}
		fresh := ar.Clone()
		copy(fresh.Levels, sol.Levels)
		want, err := sched.BuildInto(sched.Input{
			App:     inst.App,
			Arch:    fresh,
			Mapping: r.res.Mapping,
			Ks:      sol.Ks,
			Bus:     ttp.NewBus(len(ar.Nodes), slot),
			Model:   p.Model,
		}, nil)
		if err != nil {
			t.Fatalf("%s: fresh build: %v", r.label, err)
		}
		if !sameSchedule(sol.Schedule, want) {
			t.Errorf("%s: result schedule differs from a fresh build of its configuration", r.label)
		}
		if math.Float64bits(sol.Length) != math.Float64bits(want.Length) {
			t.Errorf("%s: Length %v, want %v", r.label, sol.Length, want.Length)
		}
	}
}
