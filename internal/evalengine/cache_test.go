package evalengine

import (
	"fmt"
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

	keys := []string{"key-0", "key-1", "key-2", "key-3", "key-4"}
	var evicted int64
	for _, k := range keys[:4] {
		evicted += c.put(k, sol)
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	// Re-putting a resident key at cap must not evict anything.
	if ev := c.put(keys[0], sol); ev != 0 {
		t.Fatalf("re-put of resident key evicted %d entries", ev)
	}
	// One past cap: exactly one victim, incoming entry kept, population
	// stays at cap instead of collapsing to one.
	if ev := c.put(keys[4], sol); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if _, ok := c.get([]byte(keys[4])); !ok {
		t.Fatal("incoming entry was not kept on overflow")
	}
	if n := c.entries.Load(); n != 4 {
		t.Fatalf("population after overflow = %d, want 4 (wholesale drop regressed)", n)
	}
}

// TestSFPCachePutEvictsOneVictim is the same regression for the SFP cache,
// whose entries are nested under node pointers.
func TestSFPCachePutEvictsOneVictim(t *testing.T) {
	const cap = 64
	c := newSFPCache(cap)
	nodeA := &platform.Node{}
	nodeB := &platform.Node{}
	nd := &sfp.Node{}

	var keys []string
	for i := 0; i < cap+2; i++ {
		keys = append(keys, fmt.Sprintf("sfp-%d", i))
	}
	var evicted int64
	for i, k := range keys[:cap] {
		n := nodeA
		if i%2 == 1 {
			n = nodeB
		}
		evicted += c.put(n, k, nd)
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	if ev := c.put(nodeA, keys[0], nd); ev != 0 {
		t.Fatalf("re-put of resident key evicted %d entries", ev)
	}
	if ev := c.put(nodeA, keys[cap], nd); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(nodeA, []byte(keys[cap])); !ok {
		t.Fatal("incoming entry was not kept on overflow")
	}
	if n := c.count; n != cap {
		t.Fatalf("population after overflow = %d, want %d", n, cap)
	}
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
		c.put(fmt.Sprintf("k%d", i%150), sol)
		if got, want := int(c.entries.Load()), population(c); got != want {
			t.Fatalf("after put %d: counter %d, map holds %d", i, got, want)
		}
	}
	c.clear()
	if n := c.entries.Load(); n != 0 {
		t.Fatalf("counter after clear = %d", n)
	}
}
