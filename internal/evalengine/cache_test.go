package evalengine

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
)

// TestSolCachePutEvictsOneVictim pins the regression for the wholesale
// reset: overflowing the cache must displace exactly one resident entry
// per insert (reported through the return value), never wipe the cache.
func TestSolCachePutEvictsOneVictim(t *testing.T) {
	c := newSolCache(4, new(atomic.Int64))
	sol := &redundancy.Solution{}

	var mappings [][]int
	for i := 0; i < 5; i++ {
		mappings = append(mappings, []int{i, 1, 0})
	}
	put := func(m []int) int64 { return c.put(&optEntry{*sol, pack(nil, m)}) }
	var evicted int64
	for _, m := range mappings[:4] {
		evicted += put(m)
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	// Re-putting a resident key at cap must not evict anything.
	if ev := put(mappings[0]); ev != 0 {
		t.Fatalf("re-put of resident key evicted %d entries", ev)
	}
	// One past cap: exactly one victim, incoming entry kept, population
	// stays at cap instead of collapsing to one.
	if ev := put(mappings[4]); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(mappings[4]); !ok {
		t.Fatal("incoming entry was not kept on overflow")
	}
	if n := c.entries.Load(); n != 4 {
		t.Fatalf("population after overflow = %d, want 4 (wholesale drop regressed)", n)
	}
	// A hit is confirmed against the stored mapping, whatever its hash.
	en := c.m[hashWords(0, pack(nil, mappings[4]))]
	c.m[hashWords(0, pack(nil, mappings[4][:2]))] = en
	if _, ok := c.get(mappings[4][:2]); ok {
		t.Fatal("a hit under another mapping's hash was not confirmed against the mapping")
	}
}

// storeKey is one SFP store key of the tests, with the failure
// probabilities of its processes in ascending process ID.
type storeKey struct {
	owner *platform.Node
	level int
	set   []uint64
}

func (k storeKey) probs() []float64 {
	v := k.owner.Version(k.level)
	var probs []float64
	for pid := 0; pid < 64*len(k.set); pid++ {
		if k.set[pid/64]&(1<<(pid%64)) != 0 {
			probs = append(probs, v.FailProb[pid])
		}
	}
	return probs
}

// storeNodes returns two node types with three levels over n processes,
// with distinct failure probabilities everywhere.
func storeNodes(n int) []*platform.Node {
	var out []*platform.Node
	for id := 0; id < 2; id++ {
		nd := &platform.Node{ID: platform.NodeID(id)}
		for h := 1; h <= 3; h++ {
			v := platform.HVersion{Level: h, FailProb: make([]float64, n)}
			for pid := range v.FailProb {
				v.FailProb[pid] = float64(1+pid+7*id) * math.Pow(10, -float64(2+2*h))
			}
			nd.Versions = append(nd.Versions, v)
		}
		out = append(out, nd)
	}
	return out
}

// assertNode compares every query of an analysis bit for bit with a
// fresh sfp.NewNode over probs.
func assertNode(t *testing.T, label string, got *sfp.Node, probs []float64, maxK int) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no analysis", label)
	}
	want, err := sfp.NewNode(probs, maxK)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.PrZero(), want.PrZero()) || got.MaxK() != want.MaxK() || got.SaturationK() != want.SaturationK() {
		t.Fatalf("%s: Pr(0) %v, MaxK %d, saturation %d; want %v, %d, %d", label,
			got.PrZero(), got.MaxK(), got.SaturationK(), want.PrZero(), want.MaxK(), want.SaturationK())
	}
	for k := 0; k <= maxK+1; k++ {
		if g, w := got.FailureProb(k), want.FailureProb(k); !same(g, w) {
			t.Fatalf("%s: FailureProb(%d) %v, want %v", label, k, g, w)
		}
	}
	for f := 1; f <= maxK; f++ {
		g, _ := got.PrExactly(f)
		w, _ := want.PrExactly(f)
		if !same(g, w) {
			t.Fatalf("%s: PrExactly(%d) %v, want %v", label, f, g, w)
		}
	}
}

// getOrPut serves key k under hash h from the store, building it on a
// miss, and reports whether it was resident and how many entries it
// evicted.
func getOrPut(t *testing.T, s *sfpStore, h uint64, k storeKey) (nd *sfp.Node, hit bool, evicted int64) {
	t.Helper()
	if nd = s.get(h, k.owner, k.level, k.set); nd != nil {
		return nd, true, 0
	}
	var st Stats
	nd, err := s.put(&st, h, k.owner, k.level, k.set, k.probs(), sfp.DefaultMaxK)
	if err != nil {
		t.Fatal(err)
	}
	if st.SFPBuilds != 1 {
		t.Fatalf("a put counted %d builds", st.SFPBuilds)
	}
	return nd, false, st.Evictions
}

// linked counts the entries reachable through the store's buckets.
func linked(s *sfpStore) int {
	n := 0
	for _, p := range s.heads {
		for ; p != 0; p = s.entry(p - 1).next {
			n++
		}
	}
	return n
}

// TestSFPStorePutEvictsOneVictim: at the cap a put displaces exactly one
// counted victim — it reuses the oldest slot and drops that entry from the
// index — and never drops the store wholesale.
func TestSFPStorePutEvictsOneVictim(t *testing.T) {
	const cap = sfpChunk + 3
	s := newSFPStore(cap)
	nodes := storeNodes(64)
	key := func(i int) storeKey { return storeKey{nodes[i%2], 1 + i%3, []uint64{uint64(i)}} }
	hash := func(k storeKey) uint64 { return sfpHash(k.owner, k.level, k.set) }
	var evicted int64
	for i := 0; i < cap; i++ {
		_, hit, ev := getOrPut(t, s, hash(key(i)), key(i))
		if hit {
			t.Fatalf("key %d resident before its put", i)
		}
		evicted += ev
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	if _, hit, _ := getOrPut(t, s, hash(key(0)), key(0)); !hit {
		t.Fatal("a resident key missed at cap")
	}
	for i := cap; i < cap+2; i++ {
		nd, _, ev := getOrPut(t, s, hash(key(i)), key(i))
		if ev != 1 {
			t.Fatalf("overflow put %d evicted %d entries, want 1", i, ev)
		}
		assertNode(t, fmt.Sprintf("overflow key %d", i), nd, key(i).probs(), sfp.DefaultMaxK)
		victim := key(i - cap)
		if s.get(hash(victim), victim.owner, victim.level, victim.set) != nil {
			t.Fatalf("overflow put %d kept the oldest entry %d", i, i-cap)
		}
	}
	for i := 2; i < cap+2; i++ {
		k := key(i)
		assertNode(t, fmt.Sprintf("key %d after overflow", i), s.get(hash(k), k.owner, k.level, k.set), k.probs(), sfp.DefaultMaxK)
	}
	if n := linked(s); n != cap {
		t.Fatalf("after overflow: %d linked entries, want %d (wholesale drop regressed)", n, cap)
	}
}

// TestSFPStoreHashCollision: two keys forced onto one hash. The second
// lookup is a confirmed miss, not the first key's analysis, and both are
// served correctly afterwards.
func TestSFPStoreHashCollision(t *testing.T) {
	s := newSFPStore(maxSFPEntries)
	nodes := storeNodes(70)
	a := storeKey{nodes[0], 2, []uint64{0b1011, 1 << 5}}
	b := storeKey{nodes[0], 2, []uint64{0b1011, 1 << 4}}
	const h = 42
	if _, hit, _ := getOrPut(t, s, h, a); hit {
		t.Fatal("empty store hit")
	}
	if nd, hit, _ := getOrPut(t, s, h, b); hit {
		t.Fatal("a colliding key was served the other key's analysis")
	} else {
		assertNode(t, "b", nd, b.probs(), sfp.DefaultMaxK)
	}
	for _, k := range []storeKey{a, b} {
		nd, hit, _ := getOrPut(t, s, h, k)
		if !hit {
			t.Fatalf("%v: not resident after its put", k.set)
		}
		assertNode(t, fmt.Sprint(k.set), nd, k.probs(), sfp.DefaultMaxK)
	}
}

// FuzzSFPStore drives a store of a fuzzer-chosen cap with sequences of
// (node, level, process subset) lookups under fuzzer-chosen hashes, so
// chains, collisions, table growth and evictions interleave, and holds
// every analysis it serves to a fresh sfp.NewNode.
func FuzzSFPStore(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 0, 1, 1, 2, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{40, 3, 2, 255, 129, 1, 2, 1, 3, 7, 1, 0, 2, 255, 129, 3})
	nodes := storeNodes(70)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		s := newSFPStore(1 + int(ops[0]%32))
		for i := 1; i+5 <= len(ops); i += 5 {
			op := ops[i : i+5]
			k := storeKey{nodes[op[0]%2], 1 + int(op[1]%3), []uint64{uint64(op[2]) | uint64(op[3])<<60, uint64(op[3] >> 6)}}
			h := uint64(op[4] % 4)
			nd, _, _ := getOrPut(t, s, h, k)
			assertNode(t, fmt.Sprintf("op %d", i/5), nd, k.probs(), sfp.DefaultMaxK)
			assertNode(t, fmt.Sprintf("op %d again", i/5), s.get(h, k.owner, k.level, k.set), k.probs(), sfp.DefaultMaxK)
			if n := linked(s); n != min(s.puts, s.cap) {
				t.Fatalf("op %d: %d linked entries after %d puts, cap %d", i/5, n, s.puts, s.cap)
			}
		}
	})
}

// countLiveGauges returns how many evalengine.live.* gauges a registry
// snapshot exposes.
func countLiveGauges(r *obs.Registry) int {
	n := 0
	for name := range r.Snapshot().Gauges {
		if strings.HasPrefix(name, "evalengine.live.") {
			n++
		}
	}
	return n
}

// TestSetMetricsIdempotent pins the gauge-leak regression: installing the
// same registry twice (as jobs.Runner does per job) must leave exactly one
// gauge set, and moving to another registry — or nil — must deregister the
// closures from the previous one.
func TestSetMetricsIdempotent(t *testing.T) {
	st := newStore()
	a := obs.NewRegistry()

	st.setMetrics(a)
	st.setMetrics(a)
	if n := countLiveGauges(a); n != len(liveGaugeNames) {
		t.Fatalf("after double install: %d live gauges, want %d", n, len(liveGaugeNames))
	}

	b := obs.NewRegistry()
	st.setMetrics(b)
	if n := countLiveGauges(a); n != 0 {
		t.Fatalf("old registry still holds %d live gauges after move", n)
	}
	if n := countLiveGauges(b); n != len(liveGaugeNames) {
		t.Fatalf("new registry holds %d live gauges, want %d", n, len(liveGaugeNames))
	}

	st.setMetrics(nil)
	if n := countLiveGauges(b); n != 0 {
		t.Fatalf("registry still holds %d live gauges after SetMetrics(nil)", n)
	}
}

// TestLiveGaugesScrapedMidRun: the /metrics scrape goroutine reads the
// evalengine.live.* gauges while a search runs on another goroutine. Under
// -race this is the data-race test for liveCounts.
func TestLiveGaugesScrapedMidRun(t *testing.T) {
	p, m := benchProblem(t)
	reg := obs.NewRegistry()
	ev := New(p)
	ev.SetMetrics(reg)
	started, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		liveGauges(reg)
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
				liveGauges(reg)
			}
		}
	}()
	<-started
	_, err := ev.RedundancyOpt(m)
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if got := liveGauges(reg)["evalengine.live.evaluations"]; got != float64(ev.Stats().Evaluations) {
		t.Errorf("live evaluations gauge %v, want %d", got, ev.Stats().Evaluations)
	}
}

// population counts a cache's entries independently of the entries
// counter the live gauges read.
func population(c *solCache) int { return len(c.m) }

// liveGauges returns the evalengine.live.* values of a registry snapshot.
func liveGauges(r *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for name, v := range r.Snapshot().Gauges {
		if strings.HasPrefix(name, "evalengine.live.") {
			out[name] = v
		}
	}
	return out
}

// TestRegistryDoesNotPinEngine pins the gauge leak behind a finished
// job's memory: a registry that outlives its engine must not keep the
// engine's store (and with it every cached solution) alive through the
// evalengine.live.* callbacks, and those gauges must still report the
// values they had when the engine was dropped.
func TestRegistryDoesNotPinEngine(t *testing.T) {
	p, m := benchProblem(t)
	reg := obs.NewRegistry()
	collected := make(chan struct{})
	want := func() map[string]float64 {
		ev := New(p)
		ev.SetMetrics(reg)
		if _, err := ev.RedundancyOpt(m); err != nil {
			t.Fatal(err)
		}
		st := ev.st
		want := map[string]float64{
			"evalengine.live.evaluations":   float64(ev.Stats().Evaluations),
			"evalengine.live.cache_entries": float64(len(ev.memo)),
			"evalengine.live.opt_entries":   float64(population(st.opts)),
		}
		if want["evalengine.live.evaluations"] == 0 || want["evalengine.live.cache_entries"] == 0 || want["evalengine.live.opt_entries"] == 0 {
			t.Fatalf("the run left nothing to observe: %v", want)
		}
		if got := liveGauges(reg); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("live gauges %v, want %v", got, want)
		}
		runtime.SetFinalizer(st, func(*store) { close(collected) })
		return want
	}()

	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the registry keeps the dropped engine's store alive")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got := liveGauges(reg); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live gauges after the engine was collected: %v, want %v", got, want)
	}
}

// TestLiveEntryCounts checks the entry counter against the map through
// puts, overflow evictions and a clear.
func TestLiveEntryCounts(t *testing.T) {
	c := newSolCache(32, new(atomic.Int64))
	sol := &redundancy.Solution{}
	for i := 0; i < 200; i++ {
		m := []int{i % 150}
		c.put(&optEntry{*sol, pack(nil, m)})
		if got, want := int(c.entries.Load()), population(c); got != want {
			t.Fatalf("after put %d: counter %d, map holds %d", i, got, want)
		}
	}
	c.clear()
	if n := c.entries.Load(); n != 0 {
		t.Fatalf("counter after clear = %d", n)
	}
}
