package evalengine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// sameFloats compares float slices bit for bit (NaN equals NaN), so a
// cached schedule that differs from the fresh one in the last ulp fails.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertSameSolution fails unless the engine's solution got for mapping
// is bit-identical in every field to the fresh solution want: got carries
// no schedule, its Length is want's schedule length, and the schedule ev
// rebuilds for it matches want's array by array.
func assertSameSolution(t *testing.T, label string, ev *Evaluator, mapping []int, got, want *redundancy.Solution) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	if got == nil {
		return
	}
	if !sameInts(got.Levels, want.Levels) {
		t.Errorf("%s: levels %v, want %v", label, got.Levels, want.Levels)
	}
	if !sameInts(got.Ks, want.Ks) {
		t.Errorf("%s: ks %v, want %v", label, got.Ks, want.Ks)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("%s: cost %v, want %v", label, got.Cost, want.Cost)
	}
	if got.Reliable != want.Reliable || got.Schedulable != want.Schedulable {
		t.Errorf("%s: reliable/schedulable %v/%v, want %v/%v",
			label, got.Reliable, got.Schedulable, want.Reliable, want.Schedulable)
	}
	if got.Schedule != nil {
		t.Errorf("%s: engine solution holds a schedule", label)
	}
	ws := want.Schedule
	if math.Float64bits(got.Length) != math.Float64bits(ws.Length) ||
		math.Float64bits(want.Length) != math.Float64bits(ws.Length) {
		t.Errorf("%s: SL %v (fresh field %v), want %v", label, got.Length, want.Length, ws.Length)
	}
	gs, err := ev.Schedule(mapping, got)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", label, err)
	}
	if math.Float64bits(gs.Length) != math.Float64bits(ws.Length) {
		t.Errorf("%s: rebuilt SL %v, want %v", label, gs.Length, ws.Length)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"start", gs.Start, ws.Start},
		{"finish", gs.Finish, ws.Finish},
		{"worst-finish", gs.WorstFinish, ws.WorstFinish},
		{"msg-start", gs.MsgStart, ws.MsgStart},
		{"msg-end", gs.MsgEnd, ws.MsgEnd},
	} {
		if !sameFloats(c.got, c.want) {
			t.Errorf("%s: %s %v, want %v", label, c.name, c.got, c.want)
		}
	}
	if len(gs.NodeOrder) != len(ws.NodeOrder) {
		t.Fatalf("%s: node order over %d nodes, want %d", label, len(gs.NodeOrder), len(ws.NodeOrder))
	}
	for j := range gs.NodeOrder {
		if len(gs.NodeOrder[j]) != len(ws.NodeOrder[j]) {
			t.Errorf("%s: node %d order %v, want %v", label, j, gs.NodeOrder[j], ws.NodeOrder[j])
			continue
		}
		for i := range gs.NodeOrder[j] {
			if gs.NodeOrder[j][i] != ws.NodeOrder[j][i] {
				t.Errorf("%s: node %d order %v, want %v", label, j, gs.NodeOrder[j], ws.NodeOrder[j])
				break
			}
		}
	}
}

// levelVectors enumerates every hardening assignment of the architecture.
func levelVectors(ar *platform.Architecture) [][]int {
	var out [][]int
	cur := make([]int, len(ar.Nodes))
	var rec func(j int)
	rec = func(j int) {
		if j == len(ar.Nodes) {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for l := ar.Nodes[j].MinLevel(); l <= ar.Nodes[j].MaxLevel(); l++ {
			cur[j] = l
			rec(j + 1)
		}
	}
	rec(0)
	return out
}

// checkMatchesFresh exhaustively compares the engine against the
// free-function path for one problem and mapping: every hardening vector
// through probe (twice, so the second round exercises the hit path) and
// the full RedundancyOpt.
func checkMatchesFresh(t *testing.T, label string, p redundancy.Problem, mapping []int) {
	t.Helper()
	ev := New(p)
	fresh := p
	fresh.Mapping = mapping
	for round := 0; round < 2; round++ {
		for _, levels := range levelVectors(p.Arch) {
			want, werr := redundancy.Evaluate(fresh, levels)
			got, gerr := ev.probe(mapping, levels)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s levels %v: errors differ: %v vs %v", label, levels, gerr, werr)
			}
			if werr != nil {
				continue
			}
			assertSameSolution(t, fmt.Sprintf("%s levels %v round %d", label, levels, round), ev, mapping, &got, want)
		}
	}
	want, werr := redundancy.RedundancyOpt(fresh)
	got, gerr := ev.RedundancyOpt(mapping)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s opt: errors differ: %v vs %v", label, gerr, werr)
	}
	if werr == nil {
		assertSameSolution(t, label+" opt", ev, mapping, got, want)
	}
	st := ev.Stats()
	if st.CacheHits == 0 {
		t.Errorf("%s: no cache hits after exhaustive revisit (stats %v)", label, st)
	}
}

func collect(pl *platform.Platform, idx []int) []*platform.Node {
	out := make([]*platform.Node, len(idx))
	for i, j := range idx {
		out[i] = &pl.Nodes[j]
	}
	return out
}

// TestEvaluatorMatchesFresh proves the memoized engine bit-identical to
// the free-function pipeline on the paper's Fig. 4 alternatives and on a
// batch of seeded synthetic applications.
func TestEvaluatorMatchesFresh(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	goal := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}
	alternatives := []struct {
		name    string
		nodes   []int
		mapping []int
		fixed   []int // nil = optimize hardening
	}{
		{"fig4a", []int{0, 1}, []int{0, 0, 1, 1}, nil},
		{"fig4b", []int{0}, []int{0, 0, 0, 0}, nil},
		{"fig4c", []int{1}, []int{0, 0, 0, 0}, nil},
		{"fig4d-fixed-max", []int{0}, []int{0, 0, 0, 0}, []int{2}},
		{"fig4e-fixed-max", []int{1}, []int{0, 0, 0, 0}, []int{2}},
	}
	for _, alt := range alternatives {
		ar := platform.NewArchitecture(collect(pl, alt.nodes))
		var fixed []int
		if alt.fixed != nil {
			fixed = make([]int, len(ar.Nodes))
			for j, nd := range ar.Nodes {
				lv := nd.MinLevel() + alt.fixed[j]
				if lv > nd.MaxLevel() {
					lv = nd.MaxLevel()
				}
				fixed[j] = lv
			}
		}
		p := redundancy.Problem{
			App:         app,
			Arch:        ar,
			Goal:        goal,
			Bus:         ttp.NewBus(len(ar.Nodes), pl.Bus.SlotLen),
			FixedLevels: fixed,
		}
		checkMatchesFresh(t, alt.name, p, alt.mapping)
	}

	// Seeded synthetic batch: 2-node architectures, alternating and
	// block mappings, across sizes and soft error rates.
	const apps = 24
	for i := 0; i < apps; i++ {
		n := 10 + 5*(i%3)
		ser := []float64{1e-12, 1e-11, 1e-10}[i%3]
		inst, err := taskgen.Generate(taskgen.DefaultConfig(int64(100+i), n, ser, 25))
		if err != nil {
			t.Fatal(err)
		}
		ar := platform.NewArchitecture(collect(inst.Platform, []int{i % 2, 2 + i%2}))
		m := make([]int, n)
		for pid := range m {
			if i%2 == 0 {
				m[pid] = pid % 2
			} else if pid >= n/2 {
				m[pid] = 1
			}
		}
		p := redundancy.Problem{
			App:  inst.App,
			Arch: ar,
			Goal: inst.Goal,
			Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
		}
		checkMatchesFresh(t, fmt.Sprintf("synthetic-%d", i), p, m)
	}
}

// TestEvaluatorInvalidation pins the SetProblem semantics: identical
// rebinds keep the caches warm, architecture changes drop the solution
// caches but keep the per-node SFP analyses, and application changes drop
// everything.
func TestEvaluatorInvalidation(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	goal := sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour}
	two := platform.NewArchitecture(collect(pl, []int{0, 1}))
	p := redundancy.Problem{App: app, Arch: two, Goal: goal, Bus: ttp.NewBus(2, pl.Bus.SlotLen)}
	m := []int{0, 0, 1, 1}

	ev := New(p)
	if _, err := ev.RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	base := ev.Stats()
	if base.CacheMisses == 0 || base.SFPBuilds == 0 {
		t.Fatalf("cold run recorded no work: %v", base)
	}

	// Identical rebind: the next RedundancyOpt is a pure cache hit.
	ev.SetProblem(p)
	if _, err := ev.RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.Invalidations != base.Invalidations {
		t.Errorf("identical rebind invalidated: %v", st)
	}
	if st.OptHits != base.OptHits+1 || st.CacheMisses != base.CacheMisses {
		t.Errorf("identical rebind missed the cache: %v", st)
	}

	// Same node types, different Architecture value: solution caches drop,
	// but the per-node SFP analyses are reused (keyed by node type).
	ev.SetProblem(redundancy.Problem{
		App: app, Arch: platform.NewArchitecture(collect(pl, []int{1, 0})),
		Goal: goal, Bus: ttp.NewBus(2, pl.Bus.SlotLen),
	})
	if _, err := ev.RedundancyOpt([]int{1, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	st = ev.Stats()
	if st.Invalidations != base.Invalidations+1 {
		t.Errorf("node swap did not invalidate solutions: %v", st)
	}
	if st.SFPHits == base.SFPHits {
		t.Errorf("node swap rebuilt SFP analyses that were cached: %v", st)
	}

	// New application: everything drops, including the SFP node cache.
	inst, err := taskgen.Generate(taskgen.DefaultConfig(7, 8, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	before := ev.Stats().SFPBuilds
	ev.SetProblem(redundancy.Problem{
		App: inst.App, Arch: platform.NewArchitecture(collect(inst.Platform, []int{0, 1})),
		Goal: inst.Goal, Bus: ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	})
	if _, err := ev.RedundancyOpt(make([]int, 8)); err != nil {
		t.Fatal(err)
	}
	if ev.Stats().SFPBuilds == before {
		t.Errorf("app change did not rebuild SFP analyses: %v", ev.Stats())
	}
}

func TestStatsStringAndRates(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 || s.OptHitRate() != 0 {
		t.Error("zero stats should have zero rates")
	}
	s = Stats{Evaluations: 10, CacheHits: 4, CacheMisses: 6, OptRuns: 5, OptHits: 1}
	if s.HitRate() != 0.4 || s.OptHitRate() != 0.2 {
		t.Errorf("rates %v %v", s.HitRate(), s.OptHitRate())
	}
	var agg Stats
	agg.Add(s)
	agg.Add(s)
	if agg.Evaluations != 20 || agg.CacheHits != 8 {
		t.Errorf("aggregate %+v", agg)
	}
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}

// TestEvaluateErrors: invalid mappings and hardening vectors surface as
// errors rather than cache entries.
func TestEvaluateErrors(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	p := redundancy.Problem{
		App:  app,
		Arch: platform.NewArchitecture(collect(pl, []int{0})),
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
	}
	ev := New(p)
	if _, err := ev.probe([]int{0, 0, 0, 9}, []int{0}); err == nil {
		t.Error("want error for out-of-range mapping")
	}
	if _, err := ev.probe([]int{0, 0, 0, 0}, []int{0, 0}); err == nil {
		t.Error("want error for wrong-length levels")
	}
	if _, err := ev.probe([]int{0, 0, 0, 0}, []int{99}); err == nil {
		t.Error("want error for invalid hardening level")
	}
}

// BenchmarkEvaluatorColdWarm measures one RedundancyOpt on a 20-process
// mapping, cold (fresh engine per iteration) vs warm (shared engine).
func BenchmarkEvaluatorCold(b *testing.B) {
	p, m := benchProblem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := New(p)
		if _, err := ev.RedundancyOpt(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorWarm(b *testing.B) {
	p, m := benchProblem(b)
	ev := New(p)
	if _, err := ev.RedundancyOpt(m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.RedundancyOpt(m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchProblem(tb testing.TB) (redundancy.Problem, []int) {
	tb.Helper()
	inst, err := taskgen.Generate(taskgen.DefaultConfig(6, 20, 1e-11, 25))
	if err != nil {
		tb.Fatal(err)
	}
	m := make([]int, 20)
	for i := range m {
		m[i] = i % 2
	}
	return redundancy.Problem{
		App:  inst.App,
		Arch: platform.NewArchitecture(collect(inst.Platform, []int{0, 1})),
		Goal: inst.Goal,
		Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	}, m
}

// TestCachesHoldNoSchedules: probes are length-only. Across a cruise
// controller RedundancyOpt sweep — a round-robin mapping and every
// single-process move away from it — no probe-memo entry of any
// hardening search and no opt-cache entry holds a schedule, and each
// carries its worst-case length.
func TestCachesHoldNoSchedules(t *testing.T) {
	inst, err := cc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	ar := platform.NewEnumerator(inst.Platform).Arch(len(inst.Platform.Nodes), 0)
	if ar == nil {
		t.Fatal("no full cruise-controller architecture")
	}
	ev := New(redundancy.Problem{
		App:  inst.App,
		Arch: ar,
		Goal: inst.Goal,
		Bus:  ttp.NewBus(len(ar.Nodes), inst.Platform.Bus.SlotLen),
	})
	base := make([]int, inst.App.NumProcesses())
	for pid := range base {
		base[pid] = pid % len(ar.Nodes)
	}
	sweep := [][]int{base}
	for pid := range base {
		for j := range ar.Nodes {
			if j != base[pid] {
				m := append([]int(nil), base...)
				m[pid] = j
				sweep = append(sweep, m)
			}
		}
	}
	check := func(name string, sol *redundancy.Solution) {
		t.Helper()
		if sol.Schedule != nil {
			t.Fatalf("%s entry %v holds a schedule", name, sol.Levels)
		}
		if !(sol.Length > 0) {
			t.Fatalf("%s entry %v has length %v", name, sol.Levels, sol.Length)
		}
	}
	for i, m := range sweep {
		if _, err := ev.RedundancyOpt(m); err != nil {
			t.Fatal(err)
		}
		if len(ev.memo) == 0 {
			t.Fatalf("hardening search %d left an empty probe memo", i)
		}
		for _, sol := range ev.memo {
			check(fmt.Sprintf("search %d probe-memo", i), &sol)
		}
	}
	opts := ev.st.opts.m
	if len(opts) != len(sweep) {
		t.Fatalf("sweep cached %d opt results for %d mappings", len(opts), len(sweep))
	}
	for _, en := range opts {
		check("opt cache", &en.sol)
	}
}

// TestMemoScopedToSearch: the probe memo belongs to one hardening search.
// After RedundancyOpt(A) and then RedundancyOpt(B) every entry is a vector
// B's search probed, holding B's solution for it, the memo holds no more
// entries than B made probes, and the live cache_entries gauge reads its
// population.
func TestMemoScopedToSearch(t *testing.T) {
	p, a := benchProblem(t)
	b := append([]int(nil), a...)
	b[0] = 1 - b[0]
	reg := obs.NewRegistry()
	ev := New(p)
	ev.SetMetrics(reg)

	if _, err := ev.RedundancyOpt(a); err != nil {
		t.Fatal(err)
	}
	if len(ev.memo) == 0 {
		t.Fatal("A's search left nothing in the probe memo")
	}
	before := ev.Stats().Evaluations
	if _, err := ev.RedundancyOpt(b); err != nil {
		t.Fatal(err)
	}
	probesB := ev.Stats().Evaluations - before
	if probesB == 0 {
		t.Fatal("B's search made no probes")
	}

	// The vectors B's search probes, and B's solution for each, from the
	// uncached search.
	fresh := p
	fresh.Mapping = b
	wantB := make(map[string]*redundancy.Solution)
	if _, err := redundancy.RedundancyOptWith(fresh, func(levels []int) (redundancy.Solution, error) {
		sol, err := redundancy.Evaluate(fresh, levels)
		if err != nil {
			return redundancy.Solution{}, err
		}
		wantB[fmt.Sprint(levels)] = sol
		return *sol, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, sol := range ev.memo {
		want, ok := wantB[fmt.Sprint(sol.Levels)]
		if !ok {
			t.Fatalf("probe memo holds %v, which B's search never probed", sol.Levels)
		}
		if !sameInts(sol.Ks, want.Ks) || sol.Cost != want.Cost || sol.Length != want.Length {
			t.Fatalf("probe memo entry %v: ks %v cost %v SL %v, B's solution has ks %v cost %v SL %v",
				sol.Levels, sol.Ks, sol.Cost, sol.Length, want.Ks, want.Cost, want.Length)
		}
	}
	if n := int64(len(ev.memo)); n == 0 || n > probesB {
		t.Fatalf("probe memo holds %d entries after B's search of %d probes", n, probesB)
	}
	if got := reg.Snapshot().Gauges["evalengine.live.cache_entries"]; got != float64(len(ev.memo)) {
		t.Fatalf("live cache_entries %v, probe memo holds %d", got, len(ev.memo))
	}
}

// TestOptResultOutlivesSlab: a RedundancyOpt result owns its Levels and
// Ks. The slab is given room for every search up front, so the winner is
// found in the array later searches reuse; after those searches, and after
// the whole array is overwritten, the result still equals the uncached
// redundancy.RedundancyOpt answer.
func TestOptResultOutlivesSlab(t *testing.T) {
	p, a := benchProblem(t)
	ev := New(p)
	ev.slab = make([]int, 0, 1<<16)
	got, err := ev.RedundancyOpt(a)
	if err != nil {
		t.Fatal(err)
	}
	for pid := range a {
		m := append([]int(nil), a...)
		m[pid] = 1 - m[pid]
		if _, err := ev.RedundancyOpt(m); err != nil {
			t.Fatal(err)
		}
	}
	if cap(ev.slab) != 1<<16 {
		t.Fatalf("the searches moved the slab to a new array of %d ints", cap(ev.slab))
	}
	whole := ev.slab[:cap(ev.slab)]
	for i := range whole {
		whole[i] = -1
	}
	fresh := p
	fresh.Mapping = a
	want, err := redundancy.RedundancyOpt(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(got.Levels, want.Levels) || !sameInts(got.Ks, want.Ks) ||
		got.Cost != want.Cost || got.Length != want.Length {
		t.Fatalf("after later searches the result is levels %v ks %v cost %v SL %v, want levels %v ks %v cost %v SL %v",
			got.Levels, got.Ks, got.Cost, got.Length, want.Levels, want.Ks, want.Cost, want.Length)
	}
}

// TestMemoKeyCollision: on an architecture wide enough for the memo key to
// wrap past 2^64, two hardening vectors with the same key each get their
// own solution. Thirty-three three-level nodes give digits in base 4, so
// the first node's place value is 4^32 = 2^64 and wraps to zero.
func TestMemoKeyCollision(t *testing.T) {
	pl := paper.Fig1Platform()
	nodes := make([]*platform.Node, 33)
	for j := range nodes {
		nodes[j] = &pl.Nodes[0]
	}
	ar := platform.NewArchitecture(nodes)
	p := redundancy.Problem{
		App:  paper.Fig1Application(),
		Arch: ar,
		Goal: sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
	}
	mapping := []int{0, 0, 0, 0}
	low := append([]int(nil), ar.Levels...)
	high := append([]int(nil), low...)
	high[0]++
	ev := New(p)
	if ev.memoKey(low) != ev.memoKey(high) {
		t.Fatalf("keys %d and %d differ; the architecture does not wrap the key", ev.memoKey(low), ev.memoKey(high))
	}
	fresh := p
	fresh.Mapping = mapping
	for i, levels := range [][]int{low, high, low, high} {
		got, err := ev.probe(mapping, levels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := redundancy.Evaluate(fresh, levels)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(got.Levels, levels) || got.Cost != want.Cost || !sameInts(got.Ks, want.Ks) {
			t.Fatalf("probe %d of %v: levels %v cost %v ks %v, want cost %v ks %v",
				i, levels, got.Levels, got.Cost, got.Ks, want.Cost, want.Ks)
		}
	}
	if s := ev.Stats(); s.CacheHits != 0 || s.CacheMisses != 4 {
		t.Errorf("colliding probes: %d hits, %d misses; want every probe to miss", s.CacheHits, s.CacheMisses)
	}
}

// TestEvaluatorWideApplication: on a 70-process application each node's
// process bitset spans two words. Across hardening searches on several
// mappings, revisited at the end so their analyses come from the SFP
// store rather than a table, every node analysis a probe uses equals a
// fresh sfp.NewNode over the processes mapped on the node at its level.
func TestEvaluatorWideApplication(t *testing.T) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(3, 70, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	ar := platform.NewArchitecture(collect(inst.Platform, []int{0, 1}))
	ev := New(redundancy.Problem{
		App:  inst.App,
		Arch: ar,
		Goal: inst.Goal,
		Bus:  ttp.NewBus(len(ar.Nodes), inst.Platform.Bus.SlotLen),
	})
	// Consecutive mappings differ, so every probe misses the probe memo.
	rng := rand.New(rand.NewSource(70))
	var mappings [][]int
	for range 3 {
		m := make([]int, inst.App.NumProcesses())
		for pid := range m {
			m[pid] = rng.Intn(len(ar.Nodes))
		}
		mappings = append(mappings, m)
	}
	mappings = append(mappings, mappings[0])
	for i, m := range mappings {
		for _, a := range ar.Nodes[0].Versions {
			for _, b := range ar.Nodes[1].Versions {
				levels := []int{a.Level, b.Level}
				if _, err := ev.probe(m, levels); err != nil {
					t.Fatal(err)
				}
				for j, nd := range ev.analysis.Nodes {
					var probs []float64
					for pid, node := range m {
						if node == j {
							probs = append(probs, ar.Nodes[j].Version(levels[j]).FailProb[pid])
						}
					}
					assertNode(t, fmt.Sprintf("mapping %d, levels %v, node %d", i, levels, j), nd, probs, sfp.DefaultMaxK)
				}
			}
		}
	}
	if s := ev.Stats(); s.CacheHits != 0 || s.SFPBuilds == 0 || s.SFPHits == 0 {
		t.Fatalf("%d memo hits, %d node analyses built and %d reused; want no memo hits and both", s.CacheHits, s.SFPBuilds, s.SFPHits)
	}
}
