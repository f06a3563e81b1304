package evalengine

import (
	"sync/atomic"

	"repro/internal/evalcache"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
)

// solCache is the per-mapping RedundancyOpt cache: mapping key →
// Solution, with a capacity backstop.
type solCache struct {
	m   map[string]*redundancy.Solution
	cap int
	// entries mirrors len(m). It lives outside the cache (in the store's
	// liveCounts) so a live gauge can read it without reaching the
	// entries.
	entries *atomic.Int64
}

func newSolCache(cap int, entries *atomic.Int64) *solCache {
	return &solCache{m: make(map[string]*redundancy.Solution), cap: cap, entries: entries}
}

// get looks up a mapping key without allocating, the way sfpCache.get
// does.
func (c *solCache) get(key []byte) (*redundancy.Solution, bool) {
	sol, ok := c.m[string(key)]
	return sol, ok
}

// put inserts the entry, reporting how many existing entries were evicted
// to stay under the cap. Eviction is counted, one victim at a time (an
// arbitrary resident entry — the keys are content hashes, so any victim is
// as good as any other), never a silent wholesale drop: the incoming entry
// is always kept and at most one resident is displaced.
func (c *solCache) put(key string, sol *redundancy.Solution) (evicted int64) {
	if _, exists := c.m[key]; !exists {
		if len(c.m) >= c.cap {
			for k := range c.m {
				delete(c.m, k)
				evicted++
				break
			}
		}
		c.entries.Add(1 - evicted)
	}
	c.m[key] = sol
	return evicted
}

func (c *solCache) clear() {
	c.entries.Add(-int64(len(c.m)))
	clear(c.m)
}

// sfpCache is the per-node-type SFP analysis cache: (node type, hardening
// level, mapped process set) → *sfp.Node. It is the expensive, highly
// reusable layer of the evaluation pipeline: node types recur across
// candidate architectures, so it survives SetProblem.
type sfpCache struct {
	byNode map[*platform.Node]map[string]*sfp.Node
	count  int
	cap    int
}

func newSFPCache(cap int) *sfpCache {
	return &sfpCache{byNode: make(map[*platform.Node]map[string]*sfp.Node), cap: cap}
}

// get looks up the analysis for node n under the (level, process set) key
// without allocating: indexing a map[string] with string(key) compiles to
// an allocation-free lookup.
func (c *sfpCache) get(n *platform.Node, key []byte) (*sfp.Node, bool) {
	nd, ok := c.byNode[n][string(key)]
	return nd, ok
}

// put inserts the analysis, reporting how many resident entries were
// evicted to stay under the cap — the same counted single-victim eviction
// as solCache.put.
func (c *sfpCache) put(n *platform.Node, key string, nd *sfp.Node) (evicted int64) {
	_, exists := c.byNode[n][key]
	if !exists && c.count >= c.cap {
	victim:
		for vn, vm := range c.byNode {
			for vk := range vm {
				delete(vm, vk)
				c.count--
				evicted++
				if len(vm) == 0 {
					delete(c.byNode, vn)
				}
				break victim
			}
		}
	}
	m := c.byNode[n]
	if m == nil {
		m = make(map[string]*sfp.Node)
		c.byNode[n] = m
	}
	if !exists {
		c.count++
	}
	m[key] = nd
	return evicted
}

func (c *sfpCache) reset() {
	clear(c.byNode)
	c.count = 0
}

// liveCounts are the values the evalengine.live.* gauges report. They are
// atomic because the /metrics scrape goroutine reads them while a run is
// in flight. They are allocated apart from the store, and the gauge
// closures capture only them: a registry that outlives its engine (a
// finished job's) then keeps three counters alive, not the caches.
type liveCounts struct {
	evaluations atomic.Int64 // Stats.Evaluations
	memoEntries atomic.Int64 // probe-memo population
	optEntries  atomic.Int64 // opt-cache population
}

// store bundles an Evaluator's caches, counters and instrumentation
// hooks.
type store struct {
	opts  *solCache // mapping → RedundancyOpt result
	sfp   *sfpCache
	stats Stats // every counter but Evaluations, which is live
	live  *liveCounts

	// persist is the optional disk-backed cache behind warm starts;
	// persistFP is the problem fingerprint the current opt cache belongs
	// to, and persistSeeded how many entries the load seeded (so a
	// flush that learned nothing can be skipped). See persist.go.
	persist       *evalcache.Cache
	persistFP     string
	persistSeeded int

	// progress is the optional live-progress publisher.
	progress *obs.Progress

	// metrics is the optional live-instrumentation sink, and the registry
	// the live callback gauges are registered on, so reinstalling
	// instruments is idempotent and moving to another registry (or to nil)
	// deregisters the old closures instead of leaking the store through
	// them. The histograms are resolved once at setMetrics so the hot path
	// observes through nil-safe pointers instead of registry lookups.
	metrics *obs.Registry
	mReexec *obs.Histogram
	mSched  *obs.Histogram
	mOpt    *obs.Histogram
}

// liveGaugeNames are the callback gauges setMetrics owns on a registry.
var liveGaugeNames = [...]string{
	"evalengine.live.evaluations",
	"evalengine.live.cache_entries",
	"evalengine.live.opt_entries",
}

func newStore() *store {
	live := new(liveCounts)
	return &store{
		opts: newSolCache(maxOptEntries, &live.optEntries),
		sfp:  newSFPCache(maxSFPEntries),
		live: live,
	}
}

// setMetrics installs (or removes, with nil) the registry the engine's
// duration histograms are recorded into. It also registers callback
// gauges for the engine's live state — evaluations so far and current
// cache populations — evaluated only when the registry is snapshotted
// (the /metrics scrape path), so they cost nothing on the hot path.
//
// Registration is idempotent: reinstalling the same registry (as
// jobs.Runner does per job) leaves exactly one gauge set behind, and
// installing a different registry — or nil — first deregisters the
// closures from the previous one. The closures read only st.live, so a
// registry left holding them keeps the counters, never the store.
func (st *store) setMetrics(r *obs.Registry) {
	prev := st.metrics
	if prev != nil && prev != r {
		for _, name := range liveGaugeNames {
			prev.UnregisterGaugeFunc(name)
		}
	}
	st.metrics = r
	st.mReexec = r.Histogram("evalengine.reexec")
	st.mSched = r.Histogram("evalengine.sched")
	st.mOpt = r.Histogram("evalengine.redundancy_opt")
	if r != nil && prev != r {
		live := st.live
		r.GaugeFunc("evalengine.live.evaluations", func() float64 {
			return float64(live.evaluations.Load())
		})
		r.GaugeFunc("evalengine.live.cache_entries", func() float64 {
			return float64(live.memoEntries.Load())
		})
		r.GaugeFunc("evalengine.live.opt_entries", func() float64 {
			return float64(live.optEntries.Load())
		})
	}
}

func (st *store) dropSolutions() {
	st.opts.clear()
	st.stats.Invalidations++
}
