package evalengine

import (
	"testing"

	"repro/internal/evalcache"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

func persistProblem(t *testing.T, seed int64) (redundancy.Problem, []int) {
	t.Helper()
	inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, 10, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	ar := platform.NewEnumerator(inst.Platform).Arch(2, 0)
	if ar == nil {
		t.Fatal("no 2-node architecture")
	}
	m := make([]int, inst.App.NumProcesses())
	for pid := range m {
		m[pid] = pid % 2
	}
	return redundancy.Problem{
		App:  inst.App,
		Arch: ar,
		Goal: inst.Goal,
		Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	}, m
}

// TestPersistentWarmStart is the cross-process warm-start contract: a
// fresh engine pointed at a cache directory a previous engine flushed
// into answers the same requests without rebuilding a single schedule,
// and with bit-identical solutions.
func TestPersistentWarmStart(t *testing.T) {
	p, m := persistProblem(t, 11)
	dir := t.TempDir()
	cache, err := evalcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(p)
	cold.SetPersistent(cache)
	want, err := cold.RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := cold.Stats()
	if coldStats.ScheduleBuilds == 0 {
		t.Fatal("cold run built no schedules")
	}
	if err := cold.FlushPersistent(); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Saves != 1 {
		t.Fatalf("flush saved %d files, want 1", cache.Stats().Saves)
	}
	// A second flush with nothing new learned must not rewrite the file.
	if err := cold.FlushPersistent(); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Saves != 1 {
		t.Fatal("no-op flush rewrote the cache file")
	}

	// New process: same problem content, fresh bus pointer, same cache dir.
	p2, _ := persistProblem(t, 11)
	warm := New(p2)
	warm.SetPersistent(cache)
	got, err := warm.RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.ScheduleBuilds != 0 || ws.SFPBuilds != 0 {
		t.Fatalf("warm run rebuilt: %d schedules, %d SFP analyses", ws.ScheduleBuilds, ws.SFPBuilds)
	}
	if got.Cost != want.Cost || got.Reliable != want.Reliable || got.Schedulable != want.Schedulable ||
		got.Length != want.Length {
		t.Fatalf("warm solution diverges: got %+v want %+v", got, want)
	}
	// The warm, disk-served solution rebuilds the fresh path's schedule.
	fresh := p2
	fresh.Mapping = m
	ref, err := redundancy.RedundancyOpt(fresh)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "warm", warm, m, got, ref)
}

// TestPersistentSetProblemFlushes pins the rebind lifecycle: moving to
// another problem flushes the outgoing one's entries, and moving back
// seeds them from disk again. The Concurrent engine shares the code path.
func TestPersistentSetProblemFlushes(t *testing.T) {
	pA, mA := persistProblem(t, 11)
	pB, mB := persistProblem(t, 12)
	cache, err := evalcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	ce := NewConcurrent(pA, 2)
	ce.SetPersistent(cache)
	w := ce.Worker(0)
	if _, err := w.RedundancyOpt(mA); err != nil {
		t.Fatal(err)
	}
	ce.SetProblem(pB) // flushes A's entries
	if cache.Stats().Saves == 0 {
		t.Fatal("SetProblem did not flush the outgoing problem")
	}
	if _, err := w.RedundancyOpt(mB); err != nil {
		t.Fatal(err)
	}
	ce.SetProblem(pA) // flushes B, loads A
	ce.ResetStats()
	if _, err := w.RedundancyOpt(mA); err != nil {
		t.Fatal(err)
	}
	if s := ce.Stats(); s.ScheduleBuilds != 0 {
		t.Fatalf("returning to a flushed problem rebuilt %d schedules", s.ScheduleBuilds)
	}
}

// TestPersistFormatGuard: entries a format-1 engine persisted — full
// solutions whose Length field did not exist and decodes as zero — live
// under the format-1 fingerprint, so a current engine never loads them.
// It starts cold and computes true lengths instead of serving zeros.
func TestPersistFormatGuard(t *testing.T) {
	p, m := persistProblem(t, 11)
	fp1, ok := formatFingerprint(p, 1)
	if !ok {
		t.Fatal("problem cannot be fingerprinted")
	}
	if fp, _ := problemFingerprint(p); fp == fp1 {
		t.Fatal("current fingerprint equals the format-1 one")
	}
	// What a format-1 engine would have stored: the same keys, no Length.
	old := New(p)
	if _, err := old.RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	stale := func(in map[string]*redundancy.Solution) map[string]*redundancy.Solution {
		out := make(map[string]*redundancy.Solution, len(in))
		for k, sol := range in {
			c := *sol
			c.Length = 0
			out[k] = &c
		}
		return out
	}
	cache, err := evalcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Save(fp1, &evalcache.Entry{Sols: stale(old.st.sols.snapshotMap()), Opts: stale(old.st.opts.snapshotMap())}); err != nil {
		t.Fatal(err)
	}

	p2, _ := persistProblem(t, 11)
	ev := New(p2)
	ev.SetPersistent(cache)
	if hits := cache.Stats().LoadHits; hits != 0 {
		t.Fatalf("current engine loaded %d format-1 entries", hits)
	}
	got, err := ev.RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	// A cold start redoes exactly the first engine's work.
	if st, cold := ev.Stats(), old.Stats(); st.OptHits != 0 || st.ScheduleBuilds != cold.ScheduleBuilds {
		t.Fatalf("not a cold start: %v, first engine %v", st, cold)
	}
	fresh := p2
	fresh.Mapping = m
	want, err := redundancy.RedundancyOpt(fresh)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "after format-1 store", ev, m, got, want)
}
