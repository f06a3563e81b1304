package evalengine

import (
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/sched"
)

// Concurrent is the multi-goroutine face of the evaluation engine: N
// worker Evaluators over one shared store (opt cache, SFP node cache,
// atomic counters). Each worker is handed to exactly one goroutine at a
// time — workers own their probe memo and mutable scratch (schedule
// workspace, key buffers, bus clone) — while every RedundancyOpt result
// and SFP node analysis a worker computes lands in the shared caches, so
// work done by one worker is a cache hit for the rest.
//
// Determinism: a cache is only ever a shortcut to a value the worker
// would have computed itself bit-for-bit (see evalengine.go), so results
// are independent of which worker computes what and in which order.
// Callers that need a sequential-identical trajectory (mapping.
// OptimizeConcurrent, core.Run) evaluate candidates speculatively in
// parallel and replay the selection sequentially.
type Concurrent struct {
	st      *store
	workers []*Evaluator
	usable  int
}

// NewConcurrent returns an engine with the given number of workers bound
// to p. workers < 1 is treated as 1. A single-worker Concurrent behaves
// exactly like New.
func NewConcurrent(p redundancy.Problem, workers int) *Concurrent {
	return NewConcurrentWith(p, workers, nil)
}

// NewConcurrentWith is NewConcurrent with an externally shared SFP node
// cache (nil for a private one). core.Run passes one SFPCache to the
// engines of all concurrently probed candidate architectures: the
// per-node-type analyses are keyed on the node type, not the
// architecture, so they transfer across candidates.
func NewConcurrentWith(p redundancy.Problem, workers int, sfpc *SFPCache) *Concurrent {
	if workers < 1 {
		workers = 1
	}
	if sfpc == nil {
		sfpc = NewSFPCache()
	}
	st := newStore(sfpc, workers)
	c := &Concurrent{st: st, workers: make([]*Evaluator, workers)}
	for i := range c.workers {
		c.workers[i] = newEvaluator(st, i)
	}
	c.bind(p)
	return c
}

// bind rebinds every worker to p. Workers beyond the first get their own
// clone of the bus — the TDMA booking state is mutated by every schedule
// build — and a bus that cannot be cloned clamps the engine to one usable
// worker rather than racing on shared bookings.
func (c *Concurrent) bind(p redundancy.Problem) {
	c.usable = len(c.workers)
	cb, cloneable := p.Bus.(sched.CloneableBus)
	if p.Bus != nil && !cloneable {
		c.usable = 1
	}
	for i, w := range c.workers {
		q := p
		if i > 0 && cloneable {
			q.Bus = cb.CloneBus()
		}
		w.set(q)
	}
}

// NumWorkers returns how many workers may be used concurrently. It is
// less than the requested count only when the problem's bus does not
// implement sched.CloneableBus.
func (c *Concurrent) NumWorkers() int { return c.usable }

// Worker returns worker i (0 ≤ i < NumWorkers). Each worker must be used
// by at most one goroutine at a time; worker 0 doubles as the engine's
// sequential handle.
func (c *Concurrent) Worker(i int) *Evaluator { return c.workers[i] }

// Problem returns the problem the engine is currently bound to.
func (c *Concurrent) Problem() redundancy.Problem { return c.workers[0].Problem() }

// SetProblem rebinds all workers to p with the same invalidation rules as
// Evaluator.SetProblem. It must not be called while workers are in use.
func (c *Concurrent) SetProblem(p redundancy.Problem) {
	w0 := c.workers[0]
	willDrop := w0.willDropSolutions(p)
	if willDrop {
		c.st.flushPersistent()
		for _, w := range c.workers {
			w.clearMemo()
		}
	}
	w0.invalidateFor(p)
	c.bind(p)
	if willDrop && c.st.persist != nil {
		fp, _ := problemFingerprint(p)
		c.st.loadPersistent(fp)
	}
}

// Stats returns a snapshot of the engine-wide counters, including
// per-worker attribution (Stats.PerWorker) when the engine has more than
// one worker.
func (c *Concurrent) Stats() Stats { return c.st.snapshotStats() }

// ResetStats zeroes the engine-wide counters (the caches are kept).
func (c *Concurrent) ResetStats() { c.st.resetStats() }

// SetMetrics installs the registry the engine's duration histograms are
// recorded into (shared by all workers); nil disables them. Spans are
// per-worker: install them with Worker(i).SetTraceSpan.
func (c *Concurrent) SetMetrics(r *obs.Registry) { c.st.setMetrics(r) }

// SetProgress installs the live-progress publisher (shared by all
// workers); nil disables publication.
func (c *Concurrent) SetProgress(p *obs.Progress) { c.st.progress = p }
