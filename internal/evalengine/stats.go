package evalengine

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// WorkerStats attributes a share of the engine-wide work to one worker of
// a Concurrent engine.
type WorkerStats struct {
	// Evaluations counts Evaluate requests issued through this worker;
	// CacheMisses of them computed the solution rather than finding it in
	// the shared cache.
	Evaluations int64
	CacheMisses int64
}

// Stats are the engine's instrumentation counters. All counters are
// cumulative since the engine was created (or ResetStats). The zero value
// is a valid empty Stats; Add merges run-level stats into experiment-level
// aggregates.
type Stats struct {
	// Evaluations counts Evaluate requests, including cache hits.
	Evaluations int64
	// CacheHits and CacheMisses split Evaluations by solution-cache
	// outcome.
	CacheHits   int64
	CacheMisses int64
	// OptRuns counts RedundancyOpt requests; OptHits of them were answered
	// from the per-mapping cache without re-running the hardening search.
	OptRuns int64
	OptHits int64
	// ScheduleBuilds counts the length-only list-scheduler invocations of
	// the search (one per solution cache miss). Full schedules rebuilt by
	// Evaluator.Schedule for the solutions a caller walks are not counted,
	// nor is their time in SchedTime.
	ScheduleBuilds int64
	// SFPBuilds counts per-node SFP analyses computed (sfp.NewNode);
	// SFPHits were served from the node-analysis cache.
	SFPBuilds int64
	SFPHits   int64
	// Invalidations counts SetProblem calls that dropped the solution
	// caches (architecture or model change).
	Invalidations int64
	// Evictions counts cache entries displaced by the capacity backstops
	// (solution, opt and SFP caches together). A nonzero value means the
	// run outgrew the in-memory caps and some memoized work was redone.
	Evictions int64
	// ReExecTime is the wall time spent in the SFP/re-execution layer
	// (node analyses plus the greedy k-assignment); SchedTime is the wall
	// time spent building schedules. Both cover cache misses only — hits
	// cost neither. With several workers the times are summed across
	// goroutines, so they can exceed wall-clock elapsed time.
	ReExecTime time.Duration
	SchedTime  time.Duration
	// PerWorker attributes Evaluations/CacheMisses to the individual
	// workers of a Concurrent engine (index = worker id). Empty on
	// single-worker engines.
	PerWorker []WorkerStats
}

// HitRate returns the solution-cache hit fraction in [0, 1].
func (s Stats) HitRate() float64 {
	if s.Evaluations == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Evaluations)
}

// OptHitRate returns the per-mapping RedundancyOpt cache hit fraction.
func (s Stats) OptHitRate() float64 {
	if s.OptRuns == 0 {
		return 0
	}
	return float64(s.OptHits) / float64(s.OptRuns)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Evaluations += o.Evaluations
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.OptRuns += o.OptRuns
	s.OptHits += o.OptHits
	s.ScheduleBuilds += o.ScheduleBuilds
	s.SFPBuilds += o.SFPBuilds
	s.SFPHits += o.SFPHits
	s.Invalidations += o.Invalidations
	s.Evictions += o.Evictions
	s.ReExecTime += o.ReExecTime
	s.SchedTime += o.SchedTime
	if len(o.PerWorker) > len(s.PerWorker) {
		s.PerWorker = append(s.PerWorker, make([]WorkerStats, len(o.PerWorker)-len(s.PerWorker))...)
	}
	for i, w := range o.PerWorker {
		s.PerWorker[i].Evaluations += w.Evaluations
		s.PerWorker[i].CacheMisses += w.CacheMisses
	}
}

// Publish folds the counters into an obs.Registry under evalengine.*
// names. Call it once at the end of a run — the engine does not stream
// counter updates into the registry, so publishing twice double-counts. A
// nil registry is a no-op.
func (s Stats) Publish(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("evalengine.evaluations").Add(s.Evaluations)
	r.Counter("evalengine.cache_hits").Add(s.CacheHits)
	r.Counter("evalengine.cache_misses").Add(s.CacheMisses)
	r.Counter("evalengine.opt_runs").Add(s.OptRuns)
	r.Counter("evalengine.opt_hits").Add(s.OptHits)
	r.Counter("evalengine.schedule_builds").Add(s.ScheduleBuilds)
	r.Counter("evalengine.sfp_builds").Add(s.SFPBuilds)
	r.Counter("evalengine.sfp_hits").Add(s.SFPHits)
	r.Counter("evalengine.invalidations").Add(s.Invalidations)
	r.Counter("evalengine.cache_evictions").Add(s.Evictions)
	r.Counter("evalengine.reexec_ns").Add(int64(s.ReExecTime))
	r.Counter("evalengine.sched_ns").Add(int64(s.SchedTime))
	for i, w := range s.PerWorker {
		r.Counter(fmt.Sprintf("evalengine.worker.%d.evaluations", i)).Add(w.Evaluations)
		r.Counter(fmt.Sprintf("evalengine.worker.%d.cache_misses", i)).Add(w.CacheMisses)
	}
}

// String renders the counters as the single-line summary printed by the
// experiment reports.
func (s Stats) String() string {
	return fmt.Sprintf("evals=%d hit=%.1f%% opt=%d/%d sched=%d sfp=%d/%d reexec=%v sched-time=%v",
		s.Evaluations, 100*s.HitRate(), s.OptHits, s.OptRuns,
		s.ScheduleBuilds, s.SFPHits, s.SFPHits+s.SFPBuilds,
		s.ReExecTime.Round(time.Microsecond), s.SchedTime.Round(time.Microsecond))
}

// atomicStats is the concurrency-safe backing store of Stats: the same
// counters as atomics, so workers of a Concurrent engine increment them
// without coordination. snapshot renders a plain Stats for reporting.
type atomicStats struct {
	evaluations    atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	optRuns        atomic.Int64
	optHits        atomic.Int64
	scheduleBuilds atomic.Int64
	sfpBuilds      atomic.Int64
	sfpHits        atomic.Int64
	invalidations  atomic.Int64
	evictions      atomic.Int64
	reExecNanos    atomic.Int64
	schedNanos     atomic.Int64
}

func (a *atomicStats) snapshot() Stats {
	return Stats{
		Evaluations:    a.evaluations.Load(),
		CacheHits:      a.cacheHits.Load(),
		CacheMisses:    a.cacheMisses.Load(),
		OptRuns:        a.optRuns.Load(),
		OptHits:        a.optHits.Load(),
		ScheduleBuilds: a.scheduleBuilds.Load(),
		SFPBuilds:      a.sfpBuilds.Load(),
		SFPHits:        a.sfpHits.Load(),
		Invalidations:  a.invalidations.Load(),
		Evictions:      a.evictions.Load(),
		ReExecTime:     time.Duration(a.reExecNanos.Load()),
		SchedTime:      time.Duration(a.schedNanos.Load()),
	}
}

func (a *atomicStats) reset() {
	a.evaluations.Store(0)
	a.cacheHits.Store(0)
	a.cacheMisses.Store(0)
	a.optRuns.Store(0)
	a.optHits.Store(0)
	a.scheduleBuilds.Store(0)
	a.sfpBuilds.Store(0)
	a.sfpHits.Store(0)
	a.invalidations.Store(0)
	a.evictions.Store(0)
	a.reExecNanos.Store(0)
	a.schedNanos.Store(0)
}
