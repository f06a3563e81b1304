// Package evalengine is the shared evaluation engine of the design-space
// exploration: a stateful, memoizing, instrumented replacement for the
// free-function pipeline redundancy.Evaluate → sched.Build → SFP analysis
// that dominates the runtime of the DesignStrategy (Fig. 5).
//
// The tabu search of package mapping revisits mappings constantly, and
// RedundancyOpt probes many hardening vectors that differ in a single
// node. The engine owns
//
//   - a per-mapping cache of RedundancyOpt results, so a revisited
//     mapping costs one lookup instead of a hardening search — the
//     architecture node-set, goal, bus and slack model are fixed per
//     SetProblem and invalidate the cache when they change;
//   - a probe memo from hardening vector to redundancy.Solution, scoped
//     to one hardening search: RedundancyOpt revisits level vectors while
//     it raises and lowers hardening, and no other search ever asks for
//     them again, so each Evaluator keeps a plain map for the mapping it
//     is searching and clears it when the next search starts. It maps
//     an integer key to solutions by value, whose Levels and Ks live on a
//     per-search slab, so a memo-miss probe allocates nothing;
//   - a store of per-node SFP analyses, hashed on (node type, hardening
//     level, mapped process bitset) and kept with their probability
//     prefixes on chunks, so the combinatorial setup of sfp.AppendNode
//     runs once per distinct configuration and nothing allocates per
//     probe. In front of it each hardening search, whose mapping is
//     fixed, fills a [node][level] table of the analyses it has used;
//   - a sched.Workspace, so schedule probes stop re-deriving adjacency and
//     re-allocating scratch buffers on every probe;
//   - the goal's reliability ceiling (sfp.Goal.MaxSystemFailure), computed
//     once per SetProblem, so the allocator's goal test is one comparison;
//   - instrumentation counters (evaluations, probe-memo hits and misses,
//     schedule builds, SFP analyses) so the effect of memoization is
//     observable in the experiment reports rather than asserted. The wall
//     time per layer (Stats.ReExecTime, SchedTime and the registry's
//     histograms) is measured only while a trace span or a metrics
//     registry is attached: an uninstrumented probe reads no clock.
//
// Probes are length-only. The searches rank a probe by feasibility, cost
// and worst-case schedule length, so a memo miss runs sched.Probe, which
// returns Solution.Length and the schedulability verdict and writes no
// schedule. Memoized and cached solutions hold no schedule. A caller that
// walks a solution — the tabu search reading the current solution's
// critical path, or returning its best design — rebuilds the full
// schedule with Evaluator.Schedule.
//
// Memoized and fresh evaluation are bit-identical: the engine delegates to
// redundancy.ReExecutionOptAnalysis and sched.Probe, which run the exact
// arithmetic of the uncached path, and Schedule rebuilds the schedule
// redundancy.Evaluate builds (enforced by TestEvaluatorMatchesFresh).
//
// An Evaluator is a single-goroutine handle: its caches, probe memo and
// scratch buffers (schedule workspace, probe slab, node table, bus) are
// not safe for concurrent use.
package evalengine

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sched"
	"repro/internal/sfp"
)

// Cache-size backstops: a put into a full cache displaces one resident
// entry (correctness is unaffected — entries are pure memoization). The
// caps are far above what a single architecture's search touches; they
// only bound pathological runs.
const (
	maxOptEntries = 1 << 14
	maxSFPEntries = 1 << 15
)

// Evaluator is a single-goroutine handle onto the memoized evaluation
// engine for one redundancy problem at a time. Create one with New, move
// it to the next candidate architecture with SetProblem, and run
// hardening searches for mappings with RedundancyOpt. The SFP
// store survives SetProblem (node types recur across candidate
// architectures); the opt cache and the probe memo are dropped whenever
// an input that affects them changes.
type Evaluator struct {
	prob redundancy.Problem
	// ceiling is the goal's reliability ceiling at the application period
	// (sfp.Goal.MaxSystemFailure), computed once per SetProblem;
	// ceilingErr is the goal's validation error, returned by every probe.
	ceiling    float64
	ceilingErr error

	st *store // caches + instrumentation

	// span is the observability scope expensive work (RedundancyOpt cache
	// misses) is recorded under.
	span *obs.Span

	ws       sched.Workspace
	probsBuf []float64 // scratch for one node's failure probabilities
	// archBuf is a private clone of the problem's architecture whose
	// Levels are overwritten per evaluation; analysis is the per-probe
	// SFP analysis at the application period. Neither escapes: schedules
	// reference no architecture and the analysis is consumed before the
	// next probe overwrites it.
	archBuf  *platform.Architecture
	analysis sfp.Analysis
	// table holds copies of the SFP analyses the current hardening search
	// has used: node j's at level l in column l − MinLevel of row j, and
	// one at a level off the row in its last column, which never serves a
	// hit. sets holds each node's process bitset under memoMapping. Both
	// are rebuilt when mapped is false.
	table  []tableSlot
	tableW int
	sets   []uint64
	mapped bool
	// memo is the probe memo of the current hardening search: memo key of
	// a hardening vector → solution under memoMapping. A key can stand for
	// more than one vector once it wraps past 2^64, so a hit is confirmed
	// against the solution's Levels. The solutions' Levels and Ks live in
	// slab, which is reset together with the memo.
	memo        map[uint64]redundancy.Solution
	memoMapping []int
	slab        []int
}

// New returns an Evaluator for the given problem. The problem's Mapping
// field is ignored — mappings are per-call inputs.
func New(p redundancy.Problem) *Evaluator {
	e := &Evaluator{st: newStore(), memo: make(map[uint64]redundancy.Solution)}
	e.set(p)
	return e
}

type tableSlot struct {
	nd sfp.Node
	ok bool
}

// SetTraceSpan installs the span this evaluator's expensive operations
// (RedundancyOpt cache misses) are recorded under as child spans; nil
// disables recording. Callers swap it per phase the way they swap
// problems.
func (e *Evaluator) SetTraceSpan(s *obs.Span) { e.span = s }

// TraceSpan returns the currently installed span (nil when disabled).
func (e *Evaluator) TraceSpan() *obs.Span { return e.span }

// SetMetrics installs the registry the engine's duration histograms
// (evalengine.reexec, evalengine.sched, evalengine.redundancy_opt) are
// recorded into; nil disables them.
func (e *Evaluator) SetMetrics(r *obs.Registry) { e.st.setMetrics(r) }

// MetricsRegistry returns the installed registry (nil when disabled).
func (e *Evaluator) MetricsRegistry() *obs.Registry { return e.st.metrics }

// SetProgress installs the live-progress publisher instrumented loops
// above the engine (the tabu search's per-iteration ticks) publish into;
// nil disables publication.
func (e *Evaluator) SetProgress(p *obs.Progress) { e.st.progress = p }

// Progress returns the installed publisher (nil when disabled).
func (e *Evaluator) Progress() *obs.Progress { return e.st.progress }

// Problem returns the problem the evaluator is currently bound to.
func (e *Evaluator) Problem() redundancy.Problem { return e.prob }

// Stats returns a snapshot of the instrumentation counters.
func (e *Evaluator) Stats() Stats {
	s := e.st.stats
	s.Evaluations = e.st.live.evaluations.Load()
	return s
}

// ResetStats zeroes the instrumentation counters (the caches are kept).
func (e *Evaluator) ResetStats() {
	e.st.stats = Stats{}
	e.st.live.evaluations.Store(0)
}

// SetProblem rebinds the evaluator to p, invalidating exactly what the
// change invalidates: a new application or re-execution cap drops
// everything including the SFP store; any other change to the
// architecture node-set, goal, bus, slack model or fixed levels drops the
// opt cache and the probe memo only. Rebinding to an identical problem
// keeps all caches warm (core.Run relies on this when re-optimizing the
// mapping for cost on the same architecture).
//
// With a disk cache installed (SetPersistent), a rebind that drops the
// opt cache first flushes it under the outgoing problem's fingerprint and
// then seeds it from the incoming one's entry.
func (e *Evaluator) SetProblem(p redundancy.Problem) {
	newApp := e.prob.App != p.App || e.prob.MaxK != p.MaxK
	willDrop := newApp || !e.compatible(p)
	if willDrop {
		e.st.flushPersistent()
		e.clearMemo()
		if newApp {
			e.st.sfp = newSFPStore(maxSFPEntries)
		}
		e.st.dropSolutions()
	}
	e.set(p)
	if willDrop && e.st.persist != nil {
		fp, _ := problemFingerprint(p)
		e.st.loadPersistent(fp)
	}
}

func (e *Evaluator) set(p redundancy.Problem) {
	e.prob = p
	e.prob.Mapping = nil
	if p.App != nil {
		e.analysis.Period = p.App.EffectivePeriod()
	}
	e.ceiling, e.ceilingErr = p.Goal.MaxSystemFailure(e.analysis.Period)
	e.mapped = false
	if p.Arch != nil {
		e.archBuf = p.Arch.Clone()
	}
}

// compatible reports whether the memoized solutions remain valid under p:
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

// memoKey is the mixed-radix index of a hardening vector: node j's digit
// is levels[j] − MinLevel + 1, in base MaxLevel − MinLevel + 2, and the
// last node's digit is the least significant. The index wraps modulo
// 2^64 on very wide architectures, so equal keys do not prove equal
// vectors.
func (e *Evaluator) memoKey(levels []int) uint64 {
	var k uint64
	for j, n := range e.prob.Arch.Nodes[:min(len(levels), len(e.prob.Arch.Nodes))] {
		k = k*uint64(n.MaxLevel()-n.MinLevel()+2) + uint64(levels[j]-n.MinLevel()+1)
	}
	return k
}

// probe returns the solution (re-executions, worst-case schedule length,
// cost, feasibility) for the given mapping and hardening vector, from the
// probe memo when this hardening search has already probed it. The memo
// holds one mapping's probes: a call with another mapping clears it
// first. Its Schedule is nil; Schedule builds it for a solution the
// caller keeps. The solution's Levels and Ks point into the probe slab
// and stay valid until the memo is next cleared.
func (e *Evaluator) probe(mapping, levels []int) (redundancy.Solution, error) {
	st := e.st
	st.live.evaluations.Add(1)
	if !slices.Equal(e.memoMapping, mapping) {
		e.clearMemo()
		e.memoMapping = append(e.memoMapping[:0], mapping...)
	}
	key := e.memoKey(levels)
	sol, resident := e.memo[key]
	if resident && slices.Equal(sol.Levels, levels) {
		st.stats.CacheHits++
		return sol, nil
	}
	st.stats.CacheMisses++
	sol, err := e.evaluate(mapping, levels)
	if err != nil {
		return redundancy.Solution{}, err
	}
	e.memo[key] = sol
	if !resident {
		st.live.memoEntries.Add(1)
	}
	return sol, nil
}

// clearMemo empties the probe memo, its slab and the node table, keeping
// them for the next search.
func (e *Evaluator) clearMemo() {
	e.st.live.memoEntries.Add(-int64(len(e.memo)))
	clear(e.memo)
	e.memoMapping = e.memoMapping[:0]
	e.slab = e.slab[:0]
	e.mapped = false
}

// evaluate is the memo-miss path: the exact pipeline of
// redundancy.Evaluate, with the SFP node analyses served from the node
// table and store, the goal test against the precomputed reliability ceiling and a
// length-only schedule probe on the reusable workspace. The search only
// ranks the solution, so nothing else of the schedule is written. The
// layers are timed only when a span or a registry will read the times.
func (e *Evaluator) evaluate(mapping, levels []int) (redundancy.Solution, error) {
	if e.ceilingErr != nil {
		return redundancy.Solution{}, e.ceilingErr
	}
	st := e.st
	timed := e.span != nil || st.metrics != nil
	var t time.Time
	if timed {
		t = time.Now()
	}
	analysis, err := e.analysisFor(mapping, levels)
	if err != nil {
		return redundancy.Solution{}, err
	}
	// Levels and Ks go to the end of the slab; the allocator appends the
	// counts after the levels. An append that moves the slab leaves the
	// earlier solutions on the old array, which nothing writes again.
	base, m := len(e.slab), len(levels)
	var reliable bool
	e.slab, reliable = redundancy.ReExecutionOptAnalysis(append(e.slab, levels...), analysis, e.ceiling, nil)
	ks := e.slab[base+m : base+2*m : base+2*m]
	if timed {
		d := time.Since(t)
		st.stats.ReExecTime += d
		st.mReexec.Observe(d)
		t = t.Add(d)
	}
	ar := e.archBuf
	copy(ar.Levels, levels)
	length, schedulable, err := sched.Probe(e.input(mapping, ks), &e.ws)
	if timed {
		d := time.Since(t)
		st.stats.SchedTime += d
		st.mSched.Observe(d)
	}
	if err != nil {
		return redundancy.Solution{}, err
	}
	st.stats.ScheduleBuilds++
	return redundancy.Solution{
		Levels:      e.slab[base : base+m : base+m],
		Ks:          ks,
		Length:      length,
		Cost:        ar.Cost(),
		Reliable:    reliable,
		Schedulable: schedulable,
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

// analysisFor assembles the SFP analysis for the memo's mapping at levels
// from the node table, filling it from the SFP store, which builds any
// node analysis not seen before. Probabilities are collected in ascending
// process ID, the order of the uncached redundancy.ReExecutionOpt path.
func (e *Evaluator) analysisFor(mapping, levels []int) (*sfp.Analysis, error) {
	nodes := e.prob.Arch.Nodes
	if len(levels) != len(nodes) {
		return nil, fmt.Errorf("evalengine: levels cover %d of %d nodes", len(levels), len(nodes))
	}
	nw := (len(mapping) + 63) / 64
	if !e.mapped {
		if n := e.prob.App.NumProcesses(); len(mapping) != n {
			return nil, fmt.Errorf("evalengine: mapping covers %d of %d processes", len(mapping), n)
		}
		e.sets = append(e.sets[:0], make([]uint64, len(nodes)*nw)...)
		for pid, j := range mapping {
			if j < 0 || j >= len(nodes) {
				return nil, fmt.Errorf("evalengine: process %d mapped to invalid node %d", pid, j)
			}
			e.sets[j*nw+pid/64] |= 1 << (pid % 64)
		}
		e.tableW = 1
		for _, n := range nodes {
			e.tableW = max(e.tableW, len(n.Versions)+1)
		}
		e.table = append(e.table[:0], make([]tableSlot, len(nodes)*e.tableW)...)
		e.mapped = true
	}
	anodes := slices.Grow(e.analysis.Nodes[:0], len(nodes))[:len(nodes)]
	for j, n := range nodes {
		d := levels[j] - n.MinLevel()
		if d < 0 || d >= e.tableW-1 {
			d = e.tableW - 1
		}
		slot := &e.table[j*e.tableW+d]
		anodes[j] = &slot.nd
		if slot.ok {
			e.st.stats.SFPHits++
			continue
		}
		v := n.Version(levels[j])
		if v == nil {
			return nil, fmt.Errorf("evalengine: node %d has no h-version at level %d", j, levels[j])
		}
		set := e.sets[j*nw : (j+1)*nw]
		h := sfpHash(n, levels[j], set)
		nd := e.st.sfp.get(h, n, levels[j], set)
		if nd != nil {
			e.st.stats.SFPHits++
		} else {
			probs := e.probsBuf[:0]
			for w, word := range set {
				for ; word != 0; word &= word - 1 {
					probs = append(probs, v.FailProb[w*64+bits.TrailingZeros64(word)])
				}
			}
			e.probsBuf = probs[:0]
			var err error
			if nd, err = e.st.sfp.put(&e.st.stats, h, n, levels[j], set, probs, e.maxK()); err != nil {
				return nil, fmt.Errorf("evalengine: node %d: %w", j, err)
			}
		}
		slot.nd, slot.ok = *nd, d < e.tableW-1
	}
	e.analysis.Nodes = anodes
	return &e.analysis, nil
}

// RedundancyOpt runs the full hardening/re-execution trade-off of Section
// 6.3 for the given mapping (or evaluates the problem's FixedLevels when
// set), memoized per mapping: the tabu search of package mapping revisits
// mappings constantly, and a revisited mapping costs one cache lookup
// instead of a full hardening search. The returned Solution carries no
// Schedule, is shared and must be treated as immutable; its Levels and Ks
// are its own, never the probe slab's.
func (e *Evaluator) RedundancyOpt(mapping []int) (*redundancy.Solution, error) {
	st := e.st
	st.stats.OptRuns++
	if sol, ok := st.opts.get(mapping); ok {
		st.stats.OptHits++
		return sol, nil
	}
	// Cache miss: the full hardening search runs, with a fresh probe memo.
	// Only misses get a span — at ~20k opt requests per run the hits would
	// drown the trace, while the ~1k misses are exactly where the time
	// goes.
	e.clearMemo()
	var sp *obs.Span
	if e.span != nil {
		sp = e.span.Child("redundancy-opt", obs.Int("processes", len(mapping)))
	}
	start := time.Now()
	q := e.prob
	q.Mapping = mapping
	sol, err := redundancy.RedundancyOptWith(q, func(levels []int) (redundancy.Solution, error) {
		return e.probe(mapping, levels)
	})
	st.mOpt.Observe(time.Since(start))
	if sp != nil {
		if err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
		} else {
			sp.SetAttr(obs.Float("cost", sol.Cost), obs.Bool("feasible", sol.Feasible()))
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	// The winner leaves the search: one fresh slice holds the packed
	// mapping that confirms a cache hit and takes the winner's Levels and
	// Ks off the slab the next search overwrites.
	m := len(sol.Levels)
	own := pack(make([]int, 0, 1+(len(mapping)+3)/4+m+len(sol.Ks)), mapping)
	k := len(own)
	own = append(append(own, sol.Levels...), sol.Ks...)
	sol.Levels, sol.Ks = own[k:k+m:k+m], own[k+m:]
	en := &optEntry{sol, own[:k:k]}
	st.stats.Evictions += st.opts.put(en)
	return &en.sol, nil
}
