package evalengine

import (
	"repro/internal/appmodel"
	"repro/internal/evalcache"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/runstate"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

// persistFormat versions the persistent cache layout: the key scheme and
// what a stored solution carries. It is folded into the problem
// fingerprint, so bumping it orphans entries written under an
// incompatible layout instead of misreading them. Format 2 stores
// length-only solutions (Solution.Length set, no Schedule); a format-1
// entry would decode with Length zero.
const persistFormat = 2

// busFingerprint reduces a bus to the parameters that determine its
// message timing. The in-memory caches compare buses by pointer (a fresh
// bus is a fresh problem), but across processes only behavior matters: a
// TDMA bus is its slot geometry, the instantaneous and absent buses carry
// no state at all. Unknown bus implementations return ok=false, which
// disables persistence for the problem rather than guessing at key
// equivalence.
func busFingerprint(b sched.Bus) (kind string, slot, round float64, ok bool) {
	switch bus := b.(type) {
	case nil:
		return "none", 0, 0, true
	case *ttp.Bus:
		return "ttp", bus.SlotLen(), bus.RoundLen(), true
	case ttp.InstantBus:
		return "instant", 0, 0, true
	default:
		return "", 0, 0, false
	}
}

// problemFingerprint derives the content address the problem's memoized
// solutions are persisted under: every input of the evaluation pipeline
// other than the per-call (levels, mapping) key. Two processes that
// construct equal problems — same application content, node types with
// their h-versions, reliability goal, bus behavior, slack model,
// re-execution cap and fixed levels — share one cache file. ok=false
// means the problem cannot be fingerprinted (unknown bus type, missing
// pieces) and must not be persisted.
func problemFingerprint(p redundancy.Problem) (string, bool) {
	return formatFingerprint(p, persistFormat)
}

// formatFingerprint is problemFingerprint under the given cache format.
func formatFingerprint(p redundancy.Problem, format int) (string, bool) {
	if p.App == nil || p.Arch == nil {
		return "", false
	}
	kind, slot, round, ok := busFingerprint(p.Bus)
	if !ok {
		return "", false
	}
	v := struct {
		Format      int
		App         *appmodel.Application
		Nodes       []*platform.Node
		Goal        sfp.Goal
		BusKind     string
		BusSlot     float64
		BusRound    float64
		MaxK        int
		Model       int
		FixedLevels []int
	}{format, p.App, p.Arch.Nodes, p.Goal, kind, slot, round, p.MaxK, int(p.Model), p.FixedLevels}
	fp, err := runstate.Fingerprint(v)
	if err != nil {
		return "", false
	}
	return fp, true
}

// snapshotMap copies the cache's entries into a plain map for
// serialization.
func (c *solCache) snapshotMap() map[string]*redundancy.Solution {
	out := make(map[string]*redundancy.Solution, c.size())
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			out[k] = v
		}
		sh.mu.RUnlock()
	}
	return out
}

// seed inserts previously persisted entries, honoring the shard caps
// (overflow beyond the cap is silently not seeded — the disk file may
// accumulate more history than the in-memory backstop admits).
func (c *solCache) seed(m map[string]*redundancy.Solution) {
	for k, v := range m {
		c.put(k, v)
	}
}

// setPersistent installs (or removes, with nil) the disk cache, flushing
// whatever the previous one was owed and seeding the opt cache from the
// new one's entry for fp.
func (st *store) setPersistent(c *evalcache.Cache, fp string) {
	st.flushPersistent()
	st.persist = c
	st.loadPersistent(fp)
}

// loadPersistent points the store at fingerprint fp and seeds the opt
// cache from its on-disk entry, if any. Entries carry RedundancyOpt
// results only; the probe memo belongs to one hardening search and is
// never persisted. A corrupt or absent entry is simply a cold start.
func (st *store) loadPersistent(fp string) {
	st.persistFP = fp
	st.persistSeeded = 0
	if st.persist == nil || fp == "" {
		return
	}
	e, ok := st.persist.Load(fp)
	if !ok {
		return
	}
	st.opts.seed(e.Opts)
	st.persistSeeded = len(e.Opts)
}

// flushPersistent writes the current opt cache to disk under the store's
// fingerprint. It is a no-op without a disk cache, without a
// fingerprint, or when no entries were added since the load — so calling
// it defensively (problem changes, run teardown) costs nothing on warm
// runs that computed nothing new.
func (st *store) flushPersistent() error {
	if st.persist == nil || st.persistFP == "" {
		return nil
	}
	opts := st.opts.snapshotMap()
	if len(opts) <= st.persistSeeded {
		return nil
	}
	if err := st.persist.Save(st.persistFP, &evalcache.Entry{Opts: opts}); err != nil {
		return err
	}
	st.persistSeeded = len(opts)
	return nil
}

// SetPersistent installs (or removes, with nil) the disk-backed cache the
// evaluator's opt cache is loaded from and flushed to. Installing it
// immediately seeds the in-memory cache with whatever a previous process
// persisted for the current problem; from then on SetProblem
// flushes the outgoing problem's entries and loads the incoming one's.
// Call FlushPersistent (or SetProblem away) to persist the final
// problem's work.
//
// Like the caches themselves, persistence is invisible to results: disk
// entries are deterministic values of the fingerprinted problem, and a
// missing, stale or damaged file only costs recomputation.
func (e *Evaluator) SetPersistent(c *evalcache.Cache) {
	fp := ""
	if c != nil {
		fp, _ = problemFingerprint(e.prob)
	}
	e.st.setPersistent(c, fp)
}

// FlushPersistent writes entries computed since the last load to the disk
// cache. No-op without SetPersistent.
func (e *Evaluator) FlushPersistent() error { return e.st.flushPersistent() }

// SetPersistent installs the disk-backed cache on the engine's shared
// store; see Evaluator.SetPersistent. It must not be called while workers
// are in use.
func (c *Concurrent) SetPersistent(cache *evalcache.Cache) {
	c.workers[0].SetPersistent(cache)
}

// FlushPersistent writes entries computed since the last load to the disk
// cache. It must not be called while workers are in use.
func (c *Concurrent) FlushPersistent() error { return c.st.flushPersistent() }
