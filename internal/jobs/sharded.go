package jobs

import (
	"io"
	"path/filepath"

	"repro/internal/fsatomic"
	"repro/internal/obs"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// OpenSlice installs (or verifies) the sweep manifest in the shard
// directory dir and opens the journal of spec's slice (spec.ShardIndex of
// spec.ShardCount), restoring the rows an earlier attempt of the same
// slice already journaled when resume is set. The manifest pins
// (workload, figure, shard count), so a slice whose spec disagrees with
// the sweep already in dir is refused before it can write a single row;
// the journal fingerprint binds the file to its exact (workload, shard
// index, shard count) coordinates. paperbench shard workers open their
// slices here and hand the journal to the scheduler as
// SubmitOptions.RowJournal.
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
