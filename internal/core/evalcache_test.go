package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/evalcache"
)

// TestEvalCacheWarmStart pins the Options.EvalCache contract on the
// cruise controller: a second run against the same cache directory
// rebuilds at most a tenth of the cold run's schedules and returns the
// identical design, sequentially and with parallel workers.
func TestEvalCacheWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cruise controller four times")
	}
	inst, err := cc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cache, err := evalcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Goal: inst.Goal, Strategy: OPT, Workers: workers, EvalCache: cache}
			cold, err := Run(inst.App, inst.Platform, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Run(inst.App, inst.Platform, opts)
			if err != nil {
				t.Fatal(err)
			}
			cb, wb := cold.EvalStats.ScheduleBuilds, warm.EvalStats.ScheduleBuilds
			t.Logf("schedule builds: cold %d, warm %d", cb, wb)
			if cb < 1000 {
				t.Fatalf("cold run built only %d schedules", cb)
			}
			if wb*10 > cb {
				t.Errorf("warm run built %d schedules, want ≤ %d (a tenth of cold %d)", wb, cb/10, cb)
			}
			if !cold.Feasible || !warm.Feasible {
				t.Fatalf("feasible: cold %v, warm %v", cold.Feasible, warm.Feasible)
			}
			if warm.Cost != cold.Cost ||
				!reflect.DeepEqual(warm.Arch.Levels, cold.Arch.Levels) ||
				!reflect.DeepEqual(warm.Mapping, cold.Mapping) ||
				!reflect.DeepEqual(warm.Ks, cold.Ks) ||
				warm.Schedule.Length != cold.Schedule.Length {
				t.Errorf("warm result diverges: cost %g levels %v mapping %v ks %v SL %g; cold cost %g levels %v mapping %v ks %v SL %g",
					warm.Cost, warm.Arch.Levels, warm.Mapping, warm.Ks, warm.Schedule.Length,
					cold.Cost, cold.Arch.Levels, cold.Mapping, cold.Ks, cold.Schedule.Length)
			}
		})
	}
}
