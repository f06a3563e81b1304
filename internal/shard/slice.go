package shard

import (
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fsatomic"
	"repro/internal/obs"
	"repro/internal/runstate"
)

// Slice names the rows one worker of a sharded sweep computes: those
// Index assigns to Index in a partition into Count slices. The zero
// Slice is an unsharded run, which computes every row.
type Slice struct{ Index, Count int }

// Owns reports whether the slice computes the row with the given journal
// key: every row for an unsharded run (Count < 2), otherwise the rows
// Index assigns to s.Index. It is the one partition rule of a sweep.
func (s Slice) Owns(key string) bool {
	return s.Count < 2 || Index(key, s.Count) == s.Index
}

// OpenSlice installs (or verifies) the sweep manifest m in the shard
// directory dir and opens the journal of slice index of m.Shards,
// restoring the rows an earlier attempt of the same slice already
// journaled when resume is set. The manifest pins (workload, figure,
// shard count), so a slice whose sweep disagrees with the one already in
// dir is refused before it can write a single row; the journal
// fingerprint binds the file to its exact (workload, shard index, shard
// count) coordinates.
func OpenSlice(dir string, m Manifest, index int, resume bool) (*runstate.Journal, error) {
	if err := EnsureManifest(dir, m); err != nil {
		return nil, err
	}
	return runstate.Open(filepath.Join(dir, JournalName(index, m.Shards)),
		JournalFingerprint(m.FP, index, m.Shards), resume)
}

// JournalRows counts the valid rows in the journal of slice index of
// shards in dir (0 when there is none). Rows are counted through
// runstate.Scan, so a torn tail never reads as progress.
func JournalRows(dir string, index, shards int) int {
	data, _ := os.ReadFile(filepath.Join(dir, JournalName(index, shards)))
	_, _, rows, _ := runstate.Scan(data)
	return len(rows)
}

// WriteSliceTrace snapshots a slice's trace into the shard directory dir
// under TraceName, atomically (temp file + rename) so a concurrent merge
// never reads a half-written snapshot. A re-run slice overwrites its
// previous snapshot.
func WriteSliceTrace(dir string, index, shards int, tr *obs.Tracer) error {
	return fsatomic.Install(filepath.Join(dir, TraceName(index, shards)), tr.WriteChromeTrace)
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
	names, err := filepath.Glob(filepath.Join(dir, strings.ReplaceAll(traceFormat, "%04d", "*")))
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
