package evalengine

import (
	"slices"
	"sync/atomic"

	"repro/internal/evalcache"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
)

// solCache is the per-mapping RedundancyOpt cache: mapping hash → entry,
// with a capacity backstop. Two mappings can share a hash, so a hit is
// confirmed against the mapping the entry keeps.
type solCache struct {
	m      map[uint64]*optEntry
	packed []int // the mapping get looks up, packed
	cap    int
	// entries mirrors len(m). It lives outside the cache (in the store's
	// liveCounts) so a live gauge can read it without reaching the
	// entries.
	entries *atomic.Int64
}

// optEntry is a cached solution and its mapping, packed as the mapping's
// length and then four node indices to an int, 16 bits each: node indices
// are far below 1<<16.
type optEntry struct {
	sol    redundancy.Solution
	packed []int
}

func newSolCache(cap int, entries *atomic.Int64) *solCache {
	return &solCache{m: make(map[uint64]*optEntry), cap: cap, entries: entries}
}

// pack appends mapping to dst in optEntry's packed form.
func pack(dst, mapping []int) []int {
	dst = append(dst, len(mapping))
	for i, j := range mapping {
		if i%4 == 0 {
			dst = append(dst, 0)
		}
		dst[len(dst)-1] |= j << (16 * (i % 4))
	}
	return dst
}

// hashWords folds words into the hash h, a multiply-xorshift step each.
func hashWords[W int | uint64](h uint64, words []W) uint64 {
	for _, w := range words {
		h = (h ^ uint64(w)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

func (c *solCache) get(mapping []int) (*redundancy.Solution, bool) {
	c.packed = pack(c.packed[:0], mapping)
	if en := c.m[hashWords(0, c.packed)]; en != nil && slices.Equal(en.packed, c.packed) {
		return &en.sol, true
	}
	return nil, false
}

// put inserts the entry, reporting how many existing entries were evicted
// to stay under the cap. Eviction is counted, one victim at a time (an
// arbitrary resident entry — any victim is as good as any other), never a
// silent wholesale drop: the incoming entry is always kept and at most one
// resident is displaced.
func (c *solCache) put(en *optEntry) (evicted int64) {
	h := hashWords(0, en.packed)
	if _, exists := c.m[h]; !exists {
		if len(c.m) >= c.cap {
			for k := range c.m {
				delete(c.m, k)
				evicted++
				break
			}
		}
		c.entries.Add(1 - evicted)
	}
	c.m[h] = en
	return evicted
}

func (c *solCache) clear() {
	c.entries.Add(-int64(len(c.m)))
	clear(c.m)
}

// sfpChunk is the number of entries in one chunk of the SFP store.
const sfpChunk = 64

// sfpStore is the SFP analysis store: (node type, hardening level, mapped
// process set) → sfp.Node. It is the expensive, highly reusable layer of
// the evaluation pipeline: node types recur across candidate
// architectures, so it survives SetProblem. An entry is found through the
// caller's hash of its key (sfpHash) in a chained hash table, and a hit
// is confirmed against the stored node, level and process-set words. The
// entries, their sets and the nodes' probability prefixes live on chunks
// that never move, so a put allocates only when a chunk fills.
type sfpStore struct {
	heads   []int32      // bucket h mod len(heads) → 1 + slot of its chain's head
	entries [][]sfpEntry // slot s is entries[s/sfpChunk][s%sfpChunk]; its set is
	sets    [][]uint64   // the nw words at s%sfpChunk·nw in sets[s/sfpChunk]
	floats  []float64    // the prefix chunk puts append to
	nw      int          // every set's length in words, fixed by the application
	puts    int          // slot puts%cap takes the next entry
	cap     int
}

type sfpEntry struct {
	node  sfp.Node
	owner *platform.Node
	hash  uint64
	level int32
	next  int32 // 1 + slot of the next entry in the bucket, 0 at its end
}

// newSFPStore returns an empty store of at most cap entries.
func newSFPStore(cap int) *sfpStore {
	return &sfpStore{heads: make([]int32, sfpChunk), cap: cap}
}

// sfpHash is the store's hash of a node analysis key.
func sfpHash(n *platform.Node, level int, set []uint64) uint64 {
	return hashWords(uint64(n.ID)<<32^uint64(level), set)
}

func (s *sfpStore) bucket(h uint64) *int32 { return &s.heads[h&uint64(len(s.heads)-1)] }

func (s *sfpStore) entry(slot int32) *sfpEntry { return &s.entries[slot/sfpChunk][slot%sfpChunk] }

func (s *sfpStore) set(slot int32) []uint64 {
	i := int(slot%sfpChunk) * s.nw
	return s.sets[slot/sfpChunk][i : i+s.nw]
}

// get returns the stored analysis for the key (owner, level, set) whose
// hash is h, or nil.
func (s *sfpStore) get(h uint64, owner *platform.Node, level int, set []uint64) *sfp.Node {
	for p := *s.bucket(h); p != 0; {
		en := s.entry(p - 1)
		if en.hash == h && en.owner == owner && int(en.level) == level && slices.Equal(s.set(p-1), set) {
			return &en.node
		}
		p = en.next
	}
	return nil
}

// put builds the analysis of probs for a key get has missed and stores
// it, counting the build and any eviction in st: at the cap it reuses the
// oldest slot, one counted victim. A displaced entry's prefix stays on its
// chunk, since analyses copied out of the store still read it. The
// returned node is valid until the next put.
func (s *sfpStore) put(st *Stats, h uint64, owner *platform.Node, level int, set []uint64, probs []float64, maxK int) (*sfp.Node, error) {
	if need := 2*maxK + 1; cap(s.floats)-len(s.floats) < need {
		s.floats = make([]float64, 0, max(min(2*cap(s.floats), 1<<13), 256, need))
	}
	var nd sfp.Node
	var err error
	if s.floats, err = sfp.AppendNode(s.floats, &nd, probs, maxK); err != nil {
		return nil, err
	}
	st.SFPBuilds++
	s.nw = len(set)
	slot := int32(s.puts % s.cap)
	if s.puts++; s.puts > s.cap {
		st.Evictions++
		p := s.bucket(s.entry(slot).hash)
		for *p != slot+1 {
			p = &s.entry(*p - 1).next
		}
		*p = s.entry(slot).next
	} else {
		if slot%sfpChunk == 0 {
			s.entries = append(s.entries, make([]sfpEntry, sfpChunk))
			s.sets = append(s.sets, make([]uint64, sfpChunk*s.nw))
		}
		if s.puts > len(s.heads) { // relink every entry into twice the buckets
			s.heads = make([]int32, 2*len(s.heads))
			for i := slot - 1; i >= 0; i-- {
				en := s.entry(i)
				en.next, *s.bucket(en.hash) = *s.bucket(en.hash), i+1
			}
		}
	}
	en := s.entry(slot)
	*en = sfpEntry{node: nd, owner: owner, hash: h, level: int32(level), next: *s.bucket(h)}
	copy(s.set(slot), set)
	*s.bucket(h) = slot + 1
	return &en.node, nil
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
	sfp   *sfpStore
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
		sfp:  newSFPStore(maxSFPEntries),
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
