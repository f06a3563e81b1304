package evalengine

import (
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/ttp"
)

// TestLayerTimesOnlyUnderInstruments: the engine reads the clock only when
// something reads the times. With no span and no registry a hardening
// search leaves ReExecTime and SchedTime at zero. With a registry both are
// positive and the evalengine.sched histogram holds one observation per
// schedule build; a span alone turns the timers on too.
func TestLayerTimesOnlyUnderInstruments(t *testing.T) {
	p, m := benchProblem(t)

	bare := New(p)
	if _, err := bare.RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	if s := bare.Stats(); s.ScheduleBuilds == 0 || s.ReExecTime != 0 || s.SchedTime != 0 {
		t.Errorf("uninstrumented search: %d builds, reexec %v, sched %v; want builds and zero times",
			s.ScheduleBuilds, s.ReExecTime, s.SchedTime)
	}

	reg := obs.NewRegistry()
	metered := New(p)
	metered.SetMetrics(reg)
	if _, err := metered.RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	s := metered.Stats()
	if s.ReExecTime <= 0 || s.SchedTime <= 0 {
		t.Errorf("search under a registry: reexec %v, sched %v; want both positive", s.ReExecTime, s.SchedTime)
	}
	if got := reg.Snapshot().Histograms["evalengine.sched"].Count; got != s.ScheduleBuilds {
		t.Errorf("evalengine.sched holds %d observations for %d schedule builds", got, s.ScheduleBuilds)
	}

	traced := New(p)
	traced.SetTraceSpan(obs.NewTracer().Start("search"))
	if _, err := traced.RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	if s := traced.Stats(); s.ReExecTime <= 0 || s.SchedTime <= 0 {
		t.Errorf("search under a span: reexec %v, sched %v; want both positive", s.ReExecTime, s.SchedTime)
	}
}

// ccProbe returns an evaluator on the cruise controller's n-node
// architecture of index 0 (n = 1 is the first architecture DesignStrategy
// explores), a round-robin mapping and two hardening vectors, with the
// SFP store warm for both vectors.
func ccProbe(tb testing.TB, n int) (*Evaluator, []int, [2][]int) {
	tb.Helper()
	inst, err := cc.Instance()
	if err != nil {
		tb.Fatal(err)
	}
	ar := platform.NewEnumerator(inst.Platform).Arch(n, 0)
	if ar == nil {
		tb.Fatalf("no %d-node cruise-controller architecture", n)
	}
	ev := New(redundancy.Problem{
		App:  inst.App,
		Arch: ar,
		Goal: inst.Goal,
		Bus:  ttp.NewBus(len(ar.Nodes), inst.Platform.Bus.SlotLen),
	})
	mapping := make([]int, inst.App.NumProcesses())
	for pid := range mapping {
		mapping[pid] = pid % len(ar.Nodes)
	}
	var levels [2][]int
	for i := range levels {
		levels[i] = make([]int, len(ar.Nodes))
		for j, nd := range ar.Nodes {
			levels[i][j] = min(nd.MinLevel()+i, nd.MaxLevel())
		}
		if _, err := ev.probe(mapping, levels[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return ev, mapping, levels
}

// missProbe runs one memo-miss probe: the memo is cleared first, so the
// full pipeline runs every time, on alternating hardening vectors so the
// node analyses come from the SFP store rather than the search's table.
func missProbe(tb testing.TB, ev *Evaluator, mapping []int, levels [2][]int, i int) {
	ev.clearMemo()
	if _, err := ev.probe(mapping, levels[i%2]); err != nil {
		tb.Fatal(err)
	}
}

// TestProbeAllocs pins a memo-miss probe at zero allocations: the solution
// is a memo value, its Levels and Ks go to the probe slab, the memo key is
// an integer, and the schedule probe, the SFP analysis and the allocator's
// failure vector allocate nothing. That holds with every node analysis
// served from the SFP store, from the search's node table, and built into
// store chunks with room.
func TestProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{1, 3} {
		ev, mapping, levels := ccProbe(t, n)
		built := ev.Stats().SFPBuilds
		i := 0
		if got := testing.AllocsPerRun(200, func() {
			missProbe(t, ev, mapping, levels, i)
			i++
		}); got != 0 {
			t.Errorf("%d-node cruise controller, store hits: %v allocations per probe, want 0", n, got)
		}
		if s := ev.Stats(); s.SFPBuilds != built {
			t.Errorf("%d-node cruise controller: the probes built %d SFP nodes, want a warm store", n, s.SFPBuilds-built)
		}

		// Table hits: the memo forgets the probes but the search goes on,
		// and an empty store proves nothing reaches it.
		for _, l := range levels {
			if _, err := ev.probe(mapping, l); err != nil {
				t.Fatal(err)
			}
		}
		ev.st.sfp = newSFPStore(maxSFPEntries)
		if got := testing.AllocsPerRun(200, func() {
			ev.st.live.memoEntries.Add(-int64(len(ev.memo)))
			clear(ev.memo)
			ev.slab = ev.slab[:0]
			if _, err := ev.probe(mapping, levels[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		}); got != 0 {
			t.Errorf("%d-node cruise controller, table hits: %v allocations per probe, want 0", n, got)
		}
		if s := ev.Stats(); s.SFPBuilds != built {
			t.Errorf("%d-node cruise controller: table-hit probes built %d SFP nodes", n, s.SFPBuilds-built)
		}

		// Store misses: every probe builds the analyses of the top
		// hardening vector into chunks with room, and the store is then
		// rolled back to forget them.
		for _, l := range levels {
			missProbe(t, ev, mapping, [2][]int{l}, 0)
		}
		st := ev.st.sfp
		st.floats = make([]float64, 0, 1<<12)
		snap, heads := *st, slices.Clone(st.heads)
		var top [2][]int
		for _, nd := range ev.prob.Arch.Nodes {
			top[0] = append(top[0], nd.MaxLevel())
		}
		before := ev.Stats().SFPBuilds
		runs := 0
		if got := testing.AllocsPerRun(200, func() {
			*st = snap
			copy(st.heads, heads)
			missProbe(t, ev, mapping, top, 0)
			runs++
		}); got != 0 {
			t.Errorf("%d-node cruise controller, store misses: %v allocations per probe, want 0", n, got)
		}
		if s := ev.Stats(); s.SFPBuilds < before+int64(runs) {
			t.Errorf("%d-node cruise controller: %d probes built only %d SFP nodes", n, runs, s.SFPBuilds-before)
		}
	}
}

// BenchmarkProbe measures one memo-miss probe on the cruise controller's
// first architecture with a warm SFP cache.
func BenchmarkProbe(b *testing.B) {
	ev, mapping, levels := ccProbe(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missProbe(b, ev, mapping, levels, i)
	}
}
