package evalengine

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Stats are the engine's instrumentation counters. All counters are
// cumulative since the engine was created (or ResetStats). The zero value
// is a valid empty Stats; Add merges run-level stats into experiment-level
// aggregates.
type Stats struct {
	// Evaluations counts hardening probes, including probe-memo hits.
	Evaluations int64
	// CacheHits and CacheMisses split Evaluations by probe-memo outcome:
	// a hit is a hardening vector the current hardening search already
	// probed.
	CacheHits   int64
	CacheMisses int64
	// OptRuns counts RedundancyOpt requests; OptHits of them were answered
	// from the per-mapping cache without re-running the hardening search.
	OptRuns int64
	OptHits int64
	// ScheduleBuilds counts the length-only list-scheduler invocations of
	// the search (one per probe-memo miss). Full schedules rebuilt by
	// Evaluator.Schedule for the solutions a caller walks are not counted,
	// nor is their time in SchedTime.
	ScheduleBuilds int64
	// SFPBuilds counts per-node SFP analyses computed (sfp.AppendNode
	// into the SFP store); SFPHits were served from a hardening search's
	// node table or from the store.
	SFPBuilds int64
	SFPHits   int64
	// Invalidations counts SetProblem calls that dropped the opt cache and
	// probe memos (architecture or model change).
	Invalidations int64
	// Evictions counts cache entries displaced by the capacity backstops
	// (opt and SFP caches together). A nonzero value means the run
	// outgrew the in-memory caps and some memoized work was redone.
	Evictions int64
	// ReExecTime is the wall time spent in the SFP/re-execution layer
	// (node analyses plus the greedy k-assignment); SchedTime is the wall
	// time spent probing schedules. Both cover probe-memo misses only —
	// hits cost neither — and are measured only while the evaluator has a
	// trace span or a metrics registry attached; an uninstrumented probe
	// reads no clock and leaves both at zero.
	ReExecTime time.Duration
	SchedTime  time.Duration
}

// HitRate returns the probe-memo hit fraction in [0, 1].
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
}

// String renders the counters as the single-line summary printed by the
// experiment reports.
func (s Stats) String() string {
	return fmt.Sprintf("evals=%d hit=%.1f%% opt=%d/%d sched=%d sfp=%d/%d reexec=%v sched-time=%v",
		s.Evaluations, 100*s.HitRate(), s.OptHits, s.OptRuns,
		s.ScheduleBuilds, s.SFPHits, s.SFPHits+s.SFPBuilds,
		s.ReExecTime.Round(time.Microsecond), s.SchedTime.Round(time.Microsecond))
}
