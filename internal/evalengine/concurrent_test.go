package evalengine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// fig4aProblem is the two-node Fig. 4a deployment used across the
// concurrency tests.
func fig4aProblem() (redundancy.Problem, []int) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	ar := platform.NewArchitecture(collect(pl, []int{0, 1}))
	return redundancy.Problem{
		App:  app,
		Arch: ar,
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Bus:  ttp.NewBus(len(ar.Nodes), pl.Bus.SlotLen),
	}, []int{0, 0, 1, 1}
}

// TestConcurrentMatchesFresh hammers one engine from all workers at once
// — every (mapping, levels) pair of the Fig. 4a neighborhood, twice, and
// then a hardening search per worker, whose revisited vectors hit its
// probe memo — and then verifies every result bit-identical to the
// free-function pipeline. Run under -race this is also the data-race test
// for the shared caches.
func TestConcurrentMatchesFresh(t *testing.T) {
	p, seed := fig4aProblem()
	const workers = 4
	ce := NewConcurrent(p, workers)
	if got := ce.NumWorkers(); got != workers {
		t.Fatalf("NumWorkers() = %d, want %d", got, workers)
	}

	// The work list: every one-process move away from the seed mapping ×
	// every hardening vector.
	mappings := [][]int{seed}
	for pid := range seed {
		for j := 0; j < len(p.Arch.Nodes); j++ {
			if j == seed[pid] {
				continue
			}
			m := append([]int(nil), seed...)
			m[pid] = j
			mappings = append(mappings, m)
		}
	}
	levels := levelVectors(p.Arch)
	type task struct{ m, l int }
	var tasks []task
	for round := 0; round < 2; round++ {
		for mi := range mappings {
			for li := range levels {
				tasks = append(tasks, task{mi, li})
			}
		}
	}

	results := make([]*redundancy.Solution, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := ce.Worker(w)
			for i := w; i < len(tasks); i += workers {
				results[i], errs[i] = ev.Evaluate(mappings[tasks[i].m], levels[tasks[i].l])
			}
		}(w)
	}
	wg.Wait()

	for i, tk := range tasks {
		if errs[i] != nil {
			t.Fatalf("task %d: %v", i, errs[i])
		}
		fresh := p
		fresh.Mapping = mappings[tk.m]
		want, err := redundancy.Evaluate(fresh, levels[tk.l])
		if err != nil {
			t.Fatalf("fresh task %d: %v", i, err)
		}
		assertSameSolution(t, fmt.Sprintf("task %d (mapping %v levels %v)", i, mappings[tk.m], levels[tk.l]), ce.Worker(0), mappings[tk.m], results[i], want)
	}

	// RedundancyOpt across workers: every worker optimizes a different
	// mapping concurrently, all must match the fresh path.
	opts := make([]*redundancy.Solution, workers)
	optErrs := make([]error, workers)
	wg = sync.WaitGroup{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts[w], optErrs[w] = ce.Worker(w).RedundancyOpt(mappings[w])
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if optErrs[w] != nil {
			t.Fatalf("opt %d: %v", w, optErrs[w])
		}
		fresh := p
		fresh.Mapping = mappings[w]
		want, err := redundancy.RedundancyOpt(fresh)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSolution(t, fmt.Sprintf("opt %d", w), ce.Worker(w), mappings[w], opts[w], want)
	}

	st := ce.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Errorf("expected both hits and misses under contention: %v", st)
	}
	if st.Evaluations != st.CacheHits+st.CacheMisses {
		t.Errorf("hits+misses != evaluations: %v", st)
	}
}

// TestConcurrentSetProblem: the Concurrent engine preserves the
// Evaluator's invalidation semantics — identical rebinds keep the caches
// warm, a node swap drops solutions but keeps SFP analyses.
func TestConcurrentSetProblem(t *testing.T) {
	p, m := fig4aProblem()
	ce := NewConcurrent(p, 3)
	if _, err := ce.Worker(0).RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	base := ce.Stats()

	ce.SetProblem(p)
	if _, err := ce.Worker(1).RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	st := ce.Stats()
	if st.Invalidations != base.Invalidations {
		t.Errorf("identical rebind invalidated: %v", st)
	}
	if st.OptHits != base.OptHits+1 {
		t.Errorf("identical rebind missed the warm cache from another worker: %v", st)
	}

	pl := paper.Fig1Platform()
	ce.SetProblem(redundancy.Problem{
		App: p.App, Arch: platform.NewArchitecture(collect(pl, []int{1, 0})),
		Goal: p.Goal, Bus: ttp.NewBus(2, pl.Bus.SlotLen),
	})
	if _, err := ce.Worker(2).RedundancyOpt([]int{1, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	st = ce.Stats()
	if st.Invalidations != base.Invalidations+1 {
		t.Errorf("node swap did not invalidate solutions: %v", st)
	}
	if st.SFPHits == base.SFPHits {
		t.Errorf("node swap rebuilt SFP analyses that were cached: %v", st)
	}
}

// opaqueBus implements sched.Bus but not sched.CloneableBus.
type opaqueBus struct{ inner *ttp.Bus }

func (b opaqueBus) Schedule(srcNode int, ready float64) (float64, float64) {
	return b.inner.Schedule(srcNode, ready)
}
func (b opaqueBus) Reset() { b.inner.Reset() }

// TestConcurrentBusClamp: a bus whose booking state cannot be cloned
// limits the engine to one usable worker instead of racing on it.
func TestConcurrentBusClamp(t *testing.T) {
	p, m := fig4aProblem()
	p.Bus = opaqueBus{inner: ttp.NewBus(2, paper.Fig1Platform().Bus.SlotLen)}
	ce := NewConcurrent(p, 4)
	if got := ce.NumWorkers(); got != 1 {
		t.Fatalf("NumWorkers() = %d with non-cloneable bus, want 1", got)
	}
	if _, err := ce.Worker(0).RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	// Cloneable and nil buses keep the full worker count.
	p2, _ := fig4aProblem()
	if got := NewConcurrent(p2, 4).NumWorkers(); got != 4 {
		t.Errorf("NumWorkers() = %d with *ttp.Bus, want 4", got)
	}
	p2.Bus = nil
	if got := NewConcurrent(p2, 4).NumWorkers(); got != 4 {
		t.Errorf("NumWorkers() = %d with nil bus, want 4", got)
	}
	p2.Bus = ttp.InstantBus{}
	if got := NewConcurrent(p2, 4).NumWorkers(); got != 4 {
		t.Errorf("NumWorkers() = %d with InstantBus, want 4", got)
	}
}

// TestSharedSFPCache: engines created with NewConcurrentWith over one
// SFPCache reuse each other's per-node analyses — the cross-candidate
// sharing core.Run's parallel path relies on.
func TestSharedSFPCache(t *testing.T) {
	p, m := fig4aProblem()
	sfpc := NewSFPCache()
	a := NewConcurrentWith(p, 2, sfpc)
	if _, err := a.Worker(0).RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	if a.Stats().SFPBuilds == 0 {
		t.Fatalf("first engine built no SFP analyses: %v", a.Stats())
	}

	b := NewConcurrentWith(p, 2, sfpc)
	if _, err := b.Worker(0).RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.SFPBuilds != 0 {
		t.Errorf("second engine rebuilt %d SFP analyses despite the shared cache", st.SFPBuilds)
	}
	if st.SFPHits == 0 {
		t.Errorf("second engine recorded no SFP hits: %v", st)
	}
}

// TestConcurrentSingleWorker: a 1-worker engine is exactly the sequential
// Evaluator (workers < 1 clamps to 1).
func TestConcurrentSingleWorker(t *testing.T) {
	p, m := fig4aProblem()
	ce := NewConcurrent(p, 0)
	if got := ce.NumWorkers(); got != 1 {
		t.Fatalf("NumWorkers() = %d, want 1", got)
	}
	got, err := ce.Worker(0).RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	fresh := p
	fresh.Mapping = m
	want, err := redundancy.RedundancyOpt(fresh)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "single worker", ce.Worker(0), m, got, want)
}

// TestSharedCacheSynthetic: workers over synthetic apps, checking that a
// solution computed by one worker is served to another bit-identically.
func TestSharedCacheSynthetic(t *testing.T) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(42, 12, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	p := redundancy.Problem{
		App:  inst.App,
		Arch: platform.NewArchitecture(collect(inst.Platform, []int{0, 1})),
		Goal: inst.Goal,
		Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	}
	m := make([]int, 12)
	for i := range m {
		m[i] = i % 2
	}
	ce := NewConcurrent(p, 2)
	first, err := ce.Worker(0).RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ce.Worker(1).RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second worker did not get the cached solution pointer")
	}
	if ce.Stats().OptHits != 1 {
		t.Errorf("opt hits = %d, want 1: %v", ce.Stats().OptHits, ce.Stats())
	}
}
