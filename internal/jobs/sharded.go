package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/fsatomic"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// sweepBaseID is the identity every slice of one sharded sweep shares:
// the fingerprint of the spec with its shard coordinates zeroed out.
func sweepBaseID(spec Spec) (string, error) {
	spec.ShardIndex, spec.ShardCount = 0, 0
	return spec.Fingerprint()
}

// sweepDir returns the shard directory of spec's sweep under the
// scheduler's state dir.
func (s *Scheduler) sweepDir(spec Spec) (string, error) {
	base, err := sweepBaseID(spec)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.opts.Dir, "sweep-"+base), nil
}

// OpenSlice installs (or verifies) the sweep manifest in the shard
// directory dir and opens the journal of spec's slice (spec.ShardIndex of
// spec.ShardCount), restoring the rows an earlier attempt of the same
// slice already journaled when resume is set. The manifest pins
// (workload, figure, shard count), so a slice whose spec disagrees with
// the sweep already in dir is refused before it can write a single row;
// the journal fingerprint binds the file to its exact (workload, shard
// index, shard count) coordinates. Scheduler slices and paperbench shard
// workers both open their slices here.
func OpenSlice(dir string, spec Spec, resume bool) (*runstate.Journal, error) {
	fp, err := shard.WorkloadFingerprint(spec.Apps, spec.Procs, spec.Seed)
	if err != nil {
		return nil, err
	}
	m := shard.Manifest{FP: fp, Fig: spec.Fig, Shards: spec.ShardCount,
		Apps: spec.Apps, Procs: spec.Procs, Seed: spec.Seed}
	if err := shard.EnsureManifest(dir, m); err != nil {
		return nil, err
	}
	return runstate.Open(
		filepath.Join(dir, shard.JournalName(spec.ShardIndex, spec.ShardCount)),
		shard.JournalFingerprint(fp, spec.ShardIndex, spec.ShardCount), resume)
}

// WriteSliceTrace snapshots a slice's trace into the shard directory dir
// under shard.TraceName, atomically (temp file + rename) so a concurrent
// merge never reads a half-written snapshot. A re-run slice overwrites
// its previous snapshot.
func WriteSliceTrace(dir string, spec Spec, tr *obs.Tracer) error {
	dst := filepath.Join(dir, shard.TraceName(spec.ShardIndex, spec.ShardCount))
	return fsatomic.Install(dst, tr.WriteChromeTrace)
}

// MergeSweepTrace stitches tr's trace (skipped when nil) with every worker
// trace snapshot in the shard directory dir into one cross-process Chrome
// trace on w, one process lane per input, and returns the lane count.
// Nothing is written when there are no inputs at all. Observation-only
// and best-effort: a missing snapshot (a worker that never started) or an
// unreadable one (logged to lg) narrows the merge rather than failing it.
func MergeSweepTrace(w io.Writer, tr *obs.Tracer, dir string, lg *obs.Logger) (int, error) {
	var inputs []obs.TraceData
	if tr != nil {
		inputs = append(inputs, tr.TraceData())
	}
	names, err := filepath.Glob(filepath.Join(dir, "trace-*-of-*.json"))
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		td, err := obs.ReadTraceFile(name)
		if err != nil {
			lg.Error("worker trace unreadable", "file", name, "err", err.Error())
			continue
		}
		inputs = append(inputs, td)
	}
	if len(inputs) == 0 {
		return 0, nil
	}
	return len(inputs), obs.MergeTraces(w, inputs...)
}

// ShardedHandle is the coordinator's reference to a sharded sweep: the
// fan-out of per-shard jobs plus the merge that runs once every shard
// completes. Artifacts and error are immutable once Done closes.
type ShardedHandle struct {
	s      *Scheduler
	baseID string
	dir    string
	spec   Spec // base spec, shard coordinates zeroed
	shards []*Handle
	inst   Instruments
	// sweepSpan is the coordinator's span covering the whole sweep; every
	// slice's trace reconnects under it (via SubmitOptions.TraceParent)
	// when the merged ArtifactTrace is stitched.
	sweepSpan *obs.Span

	artifacts Artifacts
	err       error
	done      chan struct{}
}

// ID returns the sweep's identity (the base spec's fingerprint, shared by
// every slice).
func (h *ShardedHandle) ID() string { return h.baseID }

// Dir returns the sweep's shard directory (manifest + per-shard journals).
func (h *ShardedHandle) Dir() string { return h.dir }

// Shards returns the per-shard job handles in shard order.
func (h *ShardedHandle) Shards() []*Handle {
	out := make([]*Handle, len(h.shards))
	copy(out, h.shards)
	return out
}

// Instruments returns the coordinator's observability hooks; the
// "shard.workers" progress phase tracks global sweep completion there.
func (h *ShardedHandle) Instruments() Instruments { return h.inst }

// Done returns a channel closed when the sweep (workers + merge) finishes.
func (h *ShardedHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the merge finishes or ctx is canceled, returning the
// merged ArtifactTable byte-identical to a single-process run.
func (h *ShardedHandle) Wait(ctx context.Context) (Artifacts, error) {
	if ctx != nil {
		select {
		case <-h.done:
		case <-ctx.Done():
			return nil, runctl.Err(ctx)
		}
	} else {
		<-h.done
	}
	return h.artifacts, h.err
}

// SubmitSharded fans a shardable figure sweep out over the given number
// of shards — one content-addressed job per slice, all sharing the
// sweep's shard directory under the scheduler's state dir — and merges
// the per-shard journals into the final table when the last worker
// finishes. The per-shard jobs ride the normal queue (tenant fair-share
// and priorities apply slice by slice, so a wide sweep cannot starve
// other tenants), and each slice resumes its own journal, so killed and
// resubmitted workers pick up where they died.
func (s *Scheduler) SubmitSharded(spec Spec, shards int, so SubmitOptions) (*ShardedHandle, error) {
	if spec.Kind == "" {
		spec.Kind = KindFigure
	}
	if spec.Kind != KindFigure {
		return nil, fmt.Errorf("jobs: only figure jobs shard, not %s", spec.Kind)
	}
	if shards < 2 {
		return nil, fmt.Errorf("jobs: sharded sweep needs at least 2 shards, got %d (submit normally instead)", shards)
	}
	if spec.ShardIndex != 0 || spec.ShardCount != 0 {
		return nil, fmt.Errorf("jobs: SubmitSharded assigns the shard coordinates itself; spec already carries %d/%d", spec.ShardIndex, spec.ShardCount)
	}
	if s.opts.Dir == "" {
		return nil, errors.New("jobs: sharded sweeps need a durable scheduler (Options.Dir) for the shard directory")
	}
	if so.RowJournal != nil {
		return nil, errors.New("jobs: sharded sweeps own their per-shard journals; SubmitOptions.RowJournal must be nil")
	}
	slice0 := spec
	slice0.ShardIndex, slice0.ShardCount = 0, shards
	if err := slice0.Validate(); err != nil {
		return nil, err
	}

	baseID, err := sweepBaseID(spec)
	if err != nil {
		return nil, err
	}
	dir, err := s.sweepDir(spec)
	if err != nil {
		return nil, err
	}
	h := &ShardedHandle{s: s, baseID: baseID, dir: dir, spec: spec, done: make(chan struct{})}
	if so.Obs != nil {
		h.inst = *so.Obs
	} else {
		h.inst = Instruments{
			Tracer:   obs.NewTracer(),
			Metrics:  obs.NewRegistry(),
			Progress: obs.NewProgress(),
			Log:      s.log,
		}
		h.inst.Tracer.SetProcessLabel("coordinator")
	}
	if h.inst.Events == nil {
		h.inst.Events = s.events.Scoped(baseID)
	}
	// The sweep span brackets the whole fan-out; its reference rides into
	// every slice as the trace parent, so the merged trace is one tree.
	// sweep.submitted lands before any slice job so the journal always
	// orders it ahead of the slices' own lifecycle events.
	h.sweepSpan = h.inst.Tracer.Start("sweep."+spec.Fig, obs.Int("shards", shards))
	so.TraceParent = h.sweepSpan.Ref()
	s.events.Emit("sweep.submitted", baseID, map[string]any{"fig": spec.Fig, "shards": shards})
	for i := 0; i < shards; i++ {
		sl := spec
		sl.ShardIndex, sl.ShardCount = i, shards
		sh, err := s.Submit(sl, so)
		if err != nil {
			for _, prev := range h.shards {
				s.Cancel(prev.ID())
			}
			h.sweepSpan.End()
			s.events.Emit("sweep.failed", baseID, map[string]any{"error": err.Error()})
			return nil, fmt.Errorf("jobs: submit shard %d/%d: %w", i, shards, err)
		}
		h.shards = append(h.shards, sh)
	}
	s.log.Info("sharded sweep submitted", "sweep", baseID, "fig", spec.Fig, "shards", shards, "dir", dir)
	go h.run(so.Context)
	return h, nil
}

// run supervises the sweep: it waits for every shard worker, ticking the
// coordinator's global "shard.workers" phase as each one succeeds, then
// merges. A slice that failed fails the sweep (with every failed slice's
// error reported) and the merge is not attempted — an incomplete sweep can
// only ever fail loudly, never silently produce a table; -merge -partial
// is the explicit opt-in. Transient slice failures never get here while
// Options.Retry has budget left, and resubmitting a failed sweep resumes
// every slice from its journal.
func (h *ShardedHandle) run(parent context.Context) {
	defer close(h.done)
	ph := h.inst.Progress.Phase("shard.workers")
	n := len(h.shards)
	ph.SetTotal(int64(n))
	ctx := parent
	if ctx == nil {
		ctx = context.Background()
	}

	// Fan in completions so progress ticks in finish order; errs stays in
	// shard order.
	finished := make(chan int, n)
	for i, sh := range h.shards {
		go func(i int, done <-chan struct{}) { <-done; finished <- i }(i, sh.Done())
	}
	errs := make([]error, n)
	for range h.shards {
		i := <-finished
		sh := h.shards[i]
		if _, err := sh.Wait(nil); err != nil {
			errs[i] = fmt.Errorf("shard %d/%d (job %s): %w", i, n, sh.ID(), err)
			continue
		}
		ph.Add(1)
	}
	if err := errors.Join(errs...); err != nil {
		h.sweepSpan.End()
		h.err = fmt.Errorf("jobs: sharded sweep %s: %w", h.baseID, err)
		h.s.events.Emit("sweep.failed", h.baseID, map[string]any{"error": h.err.Error()})
		return
	}
	ph.Done()
	h.inst.Log.Info("sharded sweep merging", "sweep", h.baseID, "dir", h.dir)
	h.artifacts, h.err = MergeShards(ctx, h.spec, h.dir, h.inst)
	h.sweepSpan.End()
	if h.err != nil {
		h.s.events.Emit("sweep.failed", h.baseID, map[string]any{"error": h.err.Error()})
		return
	}
	var trace bytes.Buffer
	if n, err := MergeSweepTrace(&trace, h.inst.Tracer, h.dir, h.inst.Log); err != nil {
		h.inst.Log.Error("trace merge failed", "sweep", h.baseID, "err", err.Error())
	} else if n > 0 {
		h.artifacts[ArtifactTrace] = trace.Bytes()
	}
	h.s.events.Emit("sweep.merged", h.baseID, map[string]any{
		"fig": h.spec.Fig, "shards": len(h.shards),
	})
}
