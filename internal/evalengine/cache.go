package evalengine

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/evalcache"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
)

// The caches are sharded so that workers of a Concurrent engine mostly
// lock disjoint shards. 16 shards keeps contention negligible at the
// worker counts that make sense here (≤ GOMAXPROCS) while costing nothing
// when a single goroutine owns the engine.
const nShards = 16

// shardSeed keys the shard hash. Which shard a key lands on only affects
// load balance (and which arbitrary victim an over-cap put displaces), so
// a per-process random seed is fine.
var shardSeed = maphash.MakeSeed()

// shardOf hashes the key bytes onto a shard index with the runtime's
// hardware-accelerated string hash — the same hash the shard map applies
// afterwards, and measurably cheaper than a byte-at-a-time FNV loop on
// the hot Evaluate path.
func shardOf(key string) int {
	return int(maphash.String(shardSeed, key) % nShards)
}

// solCache is a sharded string → Solution memoization cache, the
// per-mapping RedundancyOpt cache. Concurrent same-key computations are
// benign: both workers derive the identical Solution from the same
// inputs, and last-put-wins keeps either.
type solCache struct {
	shards   [nShards]solShard
	shardCap int // per-shard entry backstop; whole shard dropped at cap
	// entries tracks the population across shards, updated under the
	// shard locks. It lives outside the cache (in the store's liveCounts)
	// so a live gauge can read it without reaching the entries.
	entries *atomic.Int64
}

type solShard struct {
	mu sync.RWMutex
	m  map[string]*redundancy.Solution
}

func newSolCache(totalCap int, entries *atomic.Int64) *solCache {
	c := &solCache{shardCap: totalCap / nShards, entries: entries}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*redundancy.Solution)
	}
	return c
}

func (c *solCache) get(key string) (*redundancy.Solution, bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.RLock()
	sol, ok := sh.m[key]
	sh.mu.RUnlock()
	return sol, ok
}

// put inserts the entry, reporting how many existing entries were evicted
// to stay under the shard cap. Eviction is counted, one victim at a time
// (an arbitrary resident entry — the keys are content hashes, so any
// victim is as good as any other), never a silent whole-shard drop: the
// incoming entry is always kept and at most one resident is displaced.
func (c *solCache) put(key string, sol *redundancy.Solution) (evicted int64) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	if _, exists := sh.m[key]; !exists {
		if len(sh.m) >= c.shardCap {
			for k := range sh.m {
				delete(sh.m, k)
				evicted++
				break
			}
		}
		c.entries.Add(1 - evicted)
	}
	sh.m[key] = sol
	sh.mu.Unlock()
	return evicted
}

func (c *solCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.entries.Add(-int64(len(sh.m)))
		sh.m = make(map[string]*redundancy.Solution)
		sh.mu.Unlock()
	}
}

// size returns the current entry count across all shards.
func (c *solCache) size() int { return int(c.entries.Load()) }

// SFPCache is the concurrency-safe per-node-type SFP analysis cache:
// (node type, hardening level, mapped process set) → *sfp.Node. It is the
// expensive, highly reusable layer of the evaluation pipeline — node
// types recur across candidate architectures — so core.Run shares one
// SFPCache across the engines of all concurrently probed architectures
// (NewConcurrentWith). sfp.Node values are immutable after construction,
// which is what makes sharing them safe.
type SFPCache struct {
	shards [nShards]sfpShard
}

type sfpShard struct {
	mu     sync.RWMutex
	byNode map[*platform.Node]map[string]*sfp.Node
	count  int
}

// NewSFPCache returns an empty cache, ready to be shared across engines.
func NewSFPCache() *SFPCache {
	c := &SFPCache{}
	for i := range c.shards {
		c.shards[i].byNode = make(map[*platform.Node]map[string]*sfp.Node)
	}
	return c
}

// get looks up the analysis for node n under the (level, process set) key
// without allocating: indexing a map[string] with string(key) compiles to
// an allocation-free lookup.
func (c *SFPCache) get(n *platform.Node, key []byte) (*sfp.Node, bool) {
	sh := &c.shards[shardOf(string(key))]
	sh.mu.RLock()
	nd, ok := sh.byNode[n][string(key)]
	sh.mu.RUnlock()
	return nd, ok
}

// put inserts the analysis, reporting how many resident entries were
// evicted to stay under the shard cap — the same counted single-victim
// eviction as solCache.put, instead of the whole-shard reset that used to
// silently drop up to 1/16 of the hot analyses.
func (c *SFPCache) put(n *platform.Node, key string, nd *sfp.Node) (evicted int64) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	_, exists := sh.byNode[n][key]
	if !exists && sh.count >= maxSFPEntries/nShards {
	victim:
		for vn, vm := range sh.byNode {
			for vk := range vm {
				delete(vm, vk)
				sh.count--
				evicted++
				if len(vm) == 0 {
					delete(sh.byNode, vn)
				}
				break victim
			}
		}
	}
	m := sh.byNode[n]
	if m == nil {
		m = make(map[string]*sfp.Node)
		sh.byNode[n] = m
	}
	if !exists {
		sh.count++
	}
	m[key] = nd
	sh.mu.Unlock()
	return evicted
}

func (c *SFPCache) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.byNode = make(map[*platform.Node]map[string]*sfp.Node)
		sh.count = 0
		sh.mu.Unlock()
	}
}

// workerCounters attributes engine work to one worker of a Concurrent
// engine. Padded to a cache line so workers incrementing their own slot do
// not false-share.
type workerCounters struct {
	evaluations atomic.Int64
	cacheMisses atomic.Int64
	_           [48]byte
}

// liveCounts are the values the evalengine.live.* gauges report. They are
// allocated apart from the store, and the gauge closures capture only
// them: a registry that outlives its engine (a finished job's) then keeps
// three counters alive, not the caches.
type liveCounts struct {
	evaluations atomic.Int64 // Stats.Evaluations
	memoEntries atomic.Int64 // probe-memo population, summed over workers
	optEntries  atomic.Int64 // opt-cache population
}

// store bundles the caches and counters shared by every Evaluator of one
// engine: a solo Evaluator owns a private store; a Concurrent engine hands
// the same store to all its workers.
type store struct {
	opts      *solCache // mapping → RedundancyOpt result
	sfp       *SFPCache
	stats     atomicStats // every counter but evaluations, which is live
	live      *liveCounts
	perWorker []workerCounters

	// persist is the optional disk-backed cache behind warm starts;
	// persistFP is the problem fingerprint the current opt cache belongs
	// to, and persistSeeded how many entries the load seeded (so a
	// flush that learned nothing can be skipped). See persist.go.
	persist       *evalcache.Cache
	persistFP     string
	persistSeeded int

	// progress is the optional live-progress publisher; like metrics it is
	// store-level state shared by every worker of a Concurrent engine.
	progress *obs.Progress

	// metrics is the optional live-instrumentation sink; the histograms are
	// resolved once at setMetrics so the hot path observes through nil-safe
	// pointers instead of registry lookups. gaugeReg remembers where the
	// live callback gauges are currently registered so reinstalling
	// instruments is idempotent and moving to another registry (or to nil)
	// deregisters the old closures instead of leaking the store through
	// them.
	metrics  *obs.Registry
	gaugeReg *obs.Registry
	mReexec  *obs.Histogram
	mSched   *obs.Histogram
	mOpt     *obs.Histogram
}

// liveGaugeNames are the callback gauges setMetrics owns on a registry.
var liveGaugeNames = [...]string{
	"evalengine.live.evaluations",
	"evalengine.live.cache_entries",
	"evalengine.live.opt_entries",
}

func newStore(sfpc *SFPCache, workers int) *store {
	if workers < 1 {
		workers = 1
	}
	live := new(liveCounts)
	return &store{
		opts:      newSolCache(maxOptEntries, &live.optEntries),
		sfp:       sfpc,
		live:      live,
		perWorker: make([]workerCounters, workers),
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
	if st.gaugeReg != nil && st.gaugeReg != r {
		for _, name := range liveGaugeNames {
			st.gaugeReg.UnregisterGaugeFunc(name)
		}
	}
	st.metrics = r
	st.mReexec = r.Histogram("evalengine.reexec")
	st.mSched = r.Histogram("evalengine.sched")
	st.mOpt = r.Histogram("evalengine.redundancy_opt")
	if r != nil && st.gaugeReg != r {
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
	st.gaugeReg = r
}

// resetStats zeroes the engine-wide and per-worker counters.
func (st *store) resetStats() {
	st.stats.reset()
	st.live.evaluations.Store(0)
	for i := range st.perWorker {
		st.perWorker[i].evaluations.Store(0)
		st.perWorker[i].cacheMisses.Store(0)
	}
}

// snapshotStats renders the engine-wide Stats, with per-worker attribution
// when the engine has more than one worker.
func (st *store) snapshotStats() Stats {
	s := st.stats.snapshot()
	s.Evaluations = st.live.evaluations.Load()
	if len(st.perWorker) > 1 {
		s.PerWorker = make([]WorkerStats, len(st.perWorker))
		for i := range st.perWorker {
			w := &st.perWorker[i]
			s.PerWorker[i] = WorkerStats{
				Evaluations: w.evaluations.Load(),
				CacheMisses: w.cacheMisses.Load(),
			}
		}
	}
	return s
}

func (st *store) dropSolutions() {
	st.opts.clear()
	st.stats.invalidations.Add(1)
}
