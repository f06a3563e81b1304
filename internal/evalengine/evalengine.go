// Package evalengine is the shared evaluation engine of the design-space
// exploration: a stateful, memoizing, instrumented replacement for the
// free-function pipeline redundancy.Evaluate → sched.Build → SFP analysis
// that dominates the runtime of the DesignStrategy (Fig. 5).
//
// The tabu search of package mapping revisits mappings constantly, and
// RedundancyOpt probes many hardening vectors that differ in a single
// node, so the same (architecture, hardening vector, mapping) triples are
// evaluated over and over. The engine owns
//
//   - a memoization cache from (hardening vector, mapping) to the
//     redundancy.Solution — the architecture node-set, goal, bus and slack
//     model are fixed per SetProblem and invalidate the cache when they
//     change;
//   - a cache of per-node SFP analyses keyed on (node type, hardening
//     level, mapped process set), so the combinatorial
//     complete-homogeneous-polynomial setup of sfp.NewNode runs once per
//     distinct configuration instead of once per probe;
//   - a sched.Workspace, so schedule builds stop re-deriving adjacency and
//     re-allocating scratch buffers on every probe;
//   - instrumentation counters (evaluations, cache hits and misses,
//     schedule builds, SFP analyses, wall time per layer) so the effect of
//     memoization is observable in the experiment reports rather than
//     asserted.
//
// Probes are length-only. The searches rank a probe by feasibility, cost
// and worst-case schedule length, so a cache miss builds its schedule
// into the workspace, keeps Solution.Length and the schedulability
// verdict, and lets the next build overwrite the schedule. Cached
// solutions hold no schedule. A caller that walks a solution — the tabu
// search reading the current solution's critical path, or returning its
// best design — rebuilds the full schedule with Evaluator.Schedule.
//
// Cached and fresh evaluation are bit-identical: the engine delegates to
// redundancy.ReExecutionOptAnalysis and sched.BuildIncremental, which run
// the exact arithmetic of the uncached path, and Schedule rebuilds the
// schedule redundancy.Evaluate builds (enforced by
// TestEvaluatorMatchesFresh).
//
// An Evaluator is a single-goroutine handle: its scratch buffers (schedule
// workspace, key buffer, bus) are not safe for concurrent use. The caches
// behind it are concurrency-safe and shared — NewConcurrent builds an
// engine with one Evaluator per worker over the same caches, so parallel
// design-space exploration (package mapping, package core) reuses exactly
// what the sequential path reuses. See concurrent.go.
package evalengine

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sched"
	"repro/internal/sfp"
)

// Cache-size backstops: when a cache shard exceeds its cap it is dropped
// wholesale (correctness is unaffected — entries are pure memoization).
// The caps are far above what a single architecture's search touches; they
// only bound pathological runs.
const (
	maxSolutionEntries = 1 << 15
	maxOptEntries      = 1 << 14
	maxSFPEntries      = 1 << 15
)

// Evaluator is a single-goroutine handle onto the memoized evaluation
// engine for one redundancy problem at a time. Create one with New, move
// it to the next candidate architecture with SetProblem, and evaluate
// hardening vectors and mappings with Evaluate / RedundancyOpt. The SFP
// node cache survives SetProblem (node types recur across candidate
// architectures); the solution caches are dropped whenever an input that
// affects them changes.
//
// The caches and counters live in a store that may be shared by several
// workers (see Concurrent); the per-Evaluator fields below are scratch
// owned by one goroutine.
type Evaluator struct {
	prob   redundancy.Problem
	period float64

	st *store // shared caches + instrumentation

	// span is the observability scope expensive work (RedundancyOpt cache
	// misses) is recorded under; wid is this worker's slot in the shared
	// per-worker counters. Both are per-goroutine scratch like the buffers
	// below.
	span *obs.Span
	wid  int

	ws       sched.Workspace
	keyBuf   []byte
	buckets  [][]int   // per arch node: pids mapped on it, ascending
	probsBuf []float64 // scratch for one node's failure probabilities
	// archBuf is a private clone of the problem's architecture whose
	// Levels are overwritten per evaluation; anodesBuf is the per-call
	// node-analysis slice. Neither escapes: schedules reference no
	// architecture and the analysis is consumed before the next call.
	archBuf   *platform.Architecture
	anodesBuf []*sfp.Node
	// lastMapping/lastLevels memoize the previous analysisFor call: a
	// hardening search probes many level vectors under one fixed mapping,
	// so most per-node analyses are the ones already in anodesBuf and can
	// be reused without touching the shared cache at all. Cleared on any
	// problem change or analysisFor error.
	lastMapping []int
	lastLevels  []int
}

// New returns an Evaluator for the given problem. The problem's Mapping
// field is ignored — mappings are per-call inputs.
func New(p redundancy.Problem) *Evaluator {
	e := &Evaluator{st: newStore(NewSFPCache(), 1)}
	e.set(p)
	return e
}

// SetTraceSpan installs the span this evaluator's expensive operations
// (RedundancyOpt cache misses) are recorded under as child spans; nil
// disables recording. The span is per-Evaluator scratch — in a Concurrent
// engine each worker carries its own — so callers swap it per phase the
// way they swap problems.
func (e *Evaluator) SetTraceSpan(s *obs.Span) { e.span = s }

// TraceSpan returns the currently installed span (nil when disabled).
func (e *Evaluator) TraceSpan() *obs.Span { return e.span }

// SetMetrics installs the registry the engine's duration histograms
// (evalengine.reexec, evalengine.sched, evalengine.redundancy_opt) are
// recorded into; nil disables them. The registry is store-level state,
// shared by every worker of a Concurrent engine.
func (e *Evaluator) SetMetrics(r *obs.Registry) { e.st.setMetrics(r) }

// MetricsRegistry returns the installed registry (nil when disabled).
func (e *Evaluator) MetricsRegistry() *obs.Registry { return e.st.metrics }

// SetProgress installs the live-progress publisher instrumented loops
// above the engine (the tabu search's per-iteration ticks) publish into;
// nil disables publication. Like the registry it is store-level state,
// shared by every worker of a Concurrent engine.
func (e *Evaluator) SetProgress(p *obs.Progress) { e.st.progress = p }

// Progress returns the installed publisher (nil when disabled).
func (e *Evaluator) Progress() *obs.Progress { return e.st.progress }

// Problem returns the problem the evaluator is currently bound to.
func (e *Evaluator) Problem() redundancy.Problem { return e.prob }

// Stats returns a snapshot of the instrumentation counters. When the
// evaluator is a worker of a Concurrent engine the counters cover the
// whole engine, not just this worker.
func (e *Evaluator) Stats() Stats { return e.st.snapshotStats() }

// ResetStats zeroes the instrumentation counters (the caches are kept).
func (e *Evaluator) ResetStats() { e.st.resetStats() }

// SetProblem rebinds the evaluator to p, invalidating exactly what the
// change invalidates: a new application or re-execution cap drops
// everything including the SFP node cache; any other change to the
// architecture node-set, goal, bus, slack model or fixed levels drops the
// solution caches only. Rebinding to an identical problem keeps all
// caches warm (core.Run relies on this when re-optimizing the mapping for
// cost on the same architecture).
//
// With a disk cache installed (SetPersistent), a rebind that drops the
// solution caches first flushes them under the outgoing problem's
// fingerprint and then seeds them from the incoming one's entry.
func (e *Evaluator) SetProblem(p redundancy.Problem) {
	willDrop := e.willDropSolutions(p)
	if willDrop {
		e.st.flushPersistent()
	}
	e.invalidateFor(p)
	e.set(p)
	if willDrop && e.st.persist != nil {
		fp, _ := problemFingerprint(p)
		e.st.loadPersistent(fp)
	}
}

// willDropSolutions reports whether rebinding to p will drop the solution
// caches (the condition invalidateFor acts on).
func (e *Evaluator) willDropSolutions(p redundancy.Problem) bool {
	return e.prob.App != p.App || e.prob.MaxK != p.MaxK || !e.compatible(p)
}

// invalidateFor drops whatever caches binding to p invalidates, without
// rebinding. Concurrent.SetProblem runs it once before rebinding every
// worker.
func (e *Evaluator) invalidateFor(p redundancy.Problem) {
	if e.prob.App != p.App || e.prob.MaxK != p.MaxK {
		e.st.sfp.reset()
		e.st.dropSolutions()
	} else if !e.compatible(p) {
		e.st.dropSolutions()
	}
}

func (e *Evaluator) set(p redundancy.Problem) {
	e.prob = p
	e.prob.Mapping = nil
	if p.App != nil {
		e.period = p.App.EffectivePeriod()
	}
	n := 0
	if p.Arch != nil {
		n = len(p.Arch.Nodes)
		e.archBuf = p.Arch.Clone()
	}
	if cap(e.buckets) < n {
		e.buckets = make([][]int, n)
	}
	e.buckets = e.buckets[:n]
	e.lastMapping = e.lastMapping[:0]
}

// compatible reports whether the cached solutions remain valid under p:
// every input of the evaluation pipeline other than the per-call mapping
// and hardening vector must be unchanged.
func (e *Evaluator) compatible(p redundancy.Problem) bool {
	q := e.prob
	if q.Goal != p.Goal || q.Bus != p.Bus || q.Model != p.Model {
		return false
	}
	if (q.Arch == nil) != (p.Arch == nil) {
		return false
	}
	if p.Arch != nil {
		if len(q.Arch.Nodes) != len(p.Arch.Nodes) {
			return false
		}
		for j := range p.Arch.Nodes {
			if q.Arch.Nodes[j] != p.Arch.Nodes[j] {
				return false
			}
		}
	}
	if len(q.FixedLevels) != len(p.FixedLevels) {
		return false
	}
	for j := range p.FixedLevels {
		if q.FixedLevels[j] != p.FixedLevels[j] {
			return false
		}
	}
	return true
}

func (e *Evaluator) maxK() int {
	if e.prob.MaxK > 0 {
		return e.prob.MaxK
	}
	return sfp.DefaultMaxK
}

// appendInts encodes vals into dst as fixed-width big-endian 16-bit
// values; hardening levels and node indices are far below 1<<16.
func appendInts(dst []byte, vals []int) []byte {
	for _, v := range vals {
		dst = append(dst, byte(v>>8), byte(v))
	}
	return dst
}

// Evaluate returns the solution (re-executions, worst-case schedule
// length, cost, feasibility) for the given mapping and hardening vector,
// from cache when possible. Its Schedule is nil; Schedule builds it for a
// solution the caller keeps. The returned Solution is shared across
// callers and must be treated as immutable.
func (e *Evaluator) Evaluate(mapping, levels []int) (*redundancy.Solution, error) {
	st := e.st
	st.stats.evaluations.Add(1)
	st.perWorker[e.wid].evaluations.Add(1)
	e.keyBuf = appendInts(appendInts(e.keyBuf[:0], levels), mapping)
	key := string(e.keyBuf)
	if sol, ok := st.sols.get(key); ok {
		st.stats.cacheHits.Add(1)
		return sol, nil
	}
	st.stats.cacheMisses.Add(1)
	st.perWorker[e.wid].cacheMisses.Add(1)
	sol, err := e.evaluate(mapping, levels)
	if err != nil {
		return nil, err
	}
	if ev := st.sols.put(key, sol); ev > 0 {
		st.stats.evictions.Add(ev)
	}
	return sol, nil
}

// evaluate is the cache-miss path: the exact pipeline of
// redundancy.Evaluate, with the SFP node analyses served from the node
// cache and the schedule built into the reusable workspace. The search
// only ranks the solution, so it keeps the schedule's length and verdict
// and leaves the schedule itself in the workspace, to be overwritten by
// the next build.
func (e *Evaluator) evaluate(mapping, levels []int) (*redundancy.Solution, error) {
	p := &e.prob
	start := time.Now()
	analysis, err := e.analysisFor(mapping, levels)
	if err != nil {
		return nil, err
	}
	ks, reliable, err := redundancy.ReExecutionOptAnalysis(analysis, p.Goal, e.maxK())
	d := time.Since(start)
	e.st.stats.reExecNanos.Add(int64(d))
	e.st.mReexec.Observe(d)
	if err != nil {
		return nil, err
	}
	ar := e.archBuf
	copy(ar.Levels, levels)
	start = time.Now()
	// BuildIncremental replays the untouched schedule prefix from the
	// previous build in this workspace — across the tabu search's
	// single-process remaps and RedundancyOpt's single-node hardening
	// probes most of the pop sequence is unchanged — and is bit-identical
	// to a fresh BuildInto (TestBuildIncrementalMatchesBuildInto,
	// TestEvaluatorMatchesFresh).
	s, err := sched.BuildIncremental(e.input(mapping, ks), &e.ws)
	d = time.Since(start)
	e.st.stats.schedNanos.Add(int64(d))
	e.st.mSched.Observe(d)
	if err != nil {
		return nil, err
	}
	e.st.stats.scheduleBuilds.Add(1)
	return &redundancy.Solution{
		Levels:      append([]int(nil), levels...),
		Ks:          ks,
		Length:      s.Length,
		Cost:        ar.Cost(),
		Reliable:    reliable,
		Schedulable: e.ws.Schedulable(s),
	}, nil
}

// input is the scheduler input for mapping and ks on the private
// architecture clone, whose Levels the caller has set.
func (e *Evaluator) input(mapping, ks []int) sched.Input {
	return sched.Input{
		App:     e.prob.App,
		Arch:    e.archBuf,
		Mapping: mapping,
		Ks:      ks,
		Bus:     e.prob.Bus,
		Model:   e.prob.Model,
	}
}

// Schedule builds the full static schedule of a solution this engine
// served for mapping, which carries only its length (Solution.Schedule is
// nil). The schedule is rebuilt from sol.Levels and sol.Ks on the bound
// problem's bus and slack model; it is freshly allocated and bit-identical
// to the schedule redundancy.Evaluate builds for the same configuration.
// Rebuilds are not counted in Stats.ScheduleBuilds or SchedTime: they
// belong to the caller that walks the solution, not to the search.
func (e *Evaluator) Schedule(mapping []int, sol *redundancy.Solution) (*sched.Schedule, error) {
	if len(sol.Levels) != len(e.archBuf.Levels) {
		return nil, fmt.Errorf("evalengine: solution levels cover %d of %d nodes", len(sol.Levels), len(e.archBuf.Levels))
	}
	copy(e.archBuf.Levels, sol.Levels)
	return sched.BuildInto(e.input(mapping, sol.Ks), &e.ws)
}

// analysisFor assembles the SFP analysis for (mapping, levels) from the
// per-node cache, computing and caching any node analysis not seen before.
// Process lists are collected in ascending process ID, matching the
// probability order of the uncached redundancy.ReExecutionOpt path
// bit-for-bit.
func (e *Evaluator) analysisFor(mapping, levels []int) (*sfp.Analysis, error) {
	nodes := e.prob.Arch.Nodes
	if len(levels) != len(nodes) {
		return nil, fmt.Errorf("evalengine: levels cover %d of %d nodes", len(levels), len(nodes))
	}
	// A repeated mapping (the common case: hardening searches probe many
	// level vectors under one fixed mapping) keeps its process buckets,
	// and every node whose level is also unchanged keeps the analysis
	// already sitting in anodesBuf — no key build, no shared-cache lookup.
	sameMap := slices.Equal(e.lastMapping, mapping) && len(e.lastLevels) == len(nodes)
	if !sameMap {
		for j := range e.buckets {
			e.buckets[j] = e.buckets[j][:0]
		}
		for pid, j := range mapping {
			if j < 0 || j >= len(nodes) {
				e.lastMapping = e.lastMapping[:0]
				return nil, fmt.Errorf("evalengine: process %d mapped to invalid node %d", pid, j)
			}
			e.buckets[j] = append(e.buckets[j], pid)
		}
	}
	if cap(e.anodesBuf) < len(nodes) {
		e.anodesBuf = make([]*sfp.Node, len(nodes))
	}
	anodes := e.anodesBuf[:len(nodes)]
	for j, n := range nodes {
		if sameMap && levels[j] == e.lastLevels[j] && anodes[j] != nil {
			// Still a cache hit observably — the shared cache holds this
			// entry and would have returned it; the memo only skips the
			// hash-and-lock round trip.
			e.st.stats.sfpHits.Add(1)
			continue
		}
		v := n.Version(levels[j])
		if v == nil {
			e.lastMapping = e.lastMapping[:0]
			return nil, fmt.Errorf("evalengine: node %d has no h-version at level %d", j, levels[j])
		}
		e.keyBuf = appendInts(appendInts(e.keyBuf[:0], levels[j:j+1]), e.buckets[j])
		if nd, ok := e.st.sfp.get(n, e.keyBuf); ok {
			e.st.stats.sfpHits.Add(1)
			anodes[j] = nd
			continue
		}
		probs := e.probsBuf[:0]
		for _, pid := range e.buckets[j] {
			probs = append(probs, v.FailProb[pid])
		}
		e.probsBuf = probs[:0]
		nd, err := sfp.NewNode(probs, e.maxK())
		if err != nil {
			e.lastMapping = e.lastMapping[:0]
			return nil, fmt.Errorf("evalengine: node %d: %w", j, err)
		}
		e.st.stats.sfpBuilds.Add(1)
		if ev := e.st.sfp.put(n, string(e.keyBuf), nd); ev > 0 {
			e.st.stats.evictions.Add(ev)
		}
		anodes[j] = nd
	}
	e.lastMapping = append(e.lastMapping[:0], mapping...)
	e.lastLevels = append(e.lastLevels[:0], levels...)
	return &sfp.Analysis{Nodes: anodes, Period: e.period}, nil
}

// RedundancyOpt runs the full hardening/re-execution trade-off of Section
// 6.3 for the given mapping (or evaluates the problem's FixedLevels when
// set), memoized per mapping: the tabu search of package mapping revisits
// mappings constantly, and a revisited mapping costs one cache lookup
// instead of a full hardening search. Like Evaluate's, the returned
// Solution carries no Schedule, is shared and must be treated as
// immutable.
func (e *Evaluator) RedundancyOpt(mapping []int) (*redundancy.Solution, error) {
	st := e.st
	st.stats.optRuns.Add(1)
	key := string(appendInts(e.keyBuf[:0], mapping))
	if sol, ok := st.opts.get(key); ok {
		st.stats.optHits.Add(1)
		return sol, nil
	}
	// Cache miss: the full hardening search runs. Only misses get a span —
	// at ~20k opt requests per run the hits would drown the trace, while
	// the ~1k misses are exactly where the time goes.
	sp := e.span.Child("redundancy-opt", obs.Int("processes", len(mapping)))
	start := time.Now()
	q := e.prob
	q.Mapping = mapping
	sol, err := redundancy.RedundancyOptWith(q, func(levels []int) (*redundancy.Solution, error) {
		return e.Evaluate(mapping, levels)
	})
	st.mOpt.Observe(time.Since(start))
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		return nil, err
	}
	sp.SetAttr(
		obs.Float("cost", sol.Cost),
		obs.Bool("feasible", sol.Reliable && sol.Schedulable),
	)
	sp.End()
	if ev := st.opts.put(key, sol); ev > 0 {
		st.stats.evictions.Add(ev)
	}
	return sol, nil
}
