// Package shard turns one experiment sweep into a coordinator/worker fleet
// job: a deterministic partition of the workload grid over N workers, a
// versioned on-disk manifest binding the shard directory to one workload,
// per-shard runstate journals, and a merge reader that reassembles the
// rows into the byte-identical single-process table.
//
// The partition is a pure function of the per-row journal key — the same
// key every figure already uses for crash-safe resume — so any shard
// count yields a disjoint exact cover of the grid: every row belongs to
// exactly one shard, no coordination needed beyond agreeing on (count,
// index). Workers run their slice through the ordinary experiments path,
// appending completed rows to their own CRC-checksummed journal; a crash
// or SIGKILL costs at most the row being written, and a restarted worker
// resumes from its journal exactly like a single-process -resume run.
//
// The merge step (Load + the read-only row store it returns) never
// computes: it verifies the manifest, checks every per-shard journal
// against its bound fingerprint, and re-renders the figure purely from
// journaled rows. The store records every gap — an unusable journal, a
// row no journal holds — and Gaps reports them as one *IncompleteError,
// which a strict merge returns as its refusal (naming every incomplete
// shard) and a degraded merge writes out as its gap report.
package shard

import (
	"fmt"
	"hash/fnv"

	"repro/internal/runstate"
)

// Index returns the shard that owns the row with the given journal key,
// for a partition into shards slices. It is a stable pure function
// (FNV-64a of the key, reduced mod shards): every key maps to exactly one
// shard for a given count, so the slices form a disjoint exact cover of
// any workload grid. shards < 2 always returns 0.
func Index(key string, shards int) int {
	if shards < 2 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// WorkloadFingerprint derives the workload identity a sweep is sharded
// over: the same (apps, procs, seed) fingerprint cmd/paperbench binds its
// single-process -journal to, so sharded and unsharded journals of one
// workload agree on what they describe.
func WorkloadFingerprint(apps int, procs []int, seed int64) (string, error) {
	return runstate.Fingerprint(struct {
		Apps  int   `json:"apps"`
		Procs []int `json:"procs"`
		Seed  int64 `json:"seed"`
	}{apps, procs, seed})
}

// JournalName returns the file name of shard index's journal in a
// partition into shards slices, e.g. "shard-0002-of-0007.jsonl".
func JournalName(index, shards int) string {
	return fmt.Sprintf("shard-%04d-of-%04d.jsonl", index, shards)
}

// traceFormat names a slice's trace snapshot; MergeSweepTrace globs it
// with the two numbers wildcarded.
const traceFormat = "trace-%04d-of-%04d.json"

// TraceName returns the file name of shard index's Chrome trace snapshot
// in the shard directory, e.g. "trace-0002-of-0007.json". Workers write
// it next to their journal; the merge step stitches all of them (plus
// its own trace) into one cross-process timeline with obs.MergeTraces.
func TraceName(index, shards int) string {
	return fmt.Sprintf(traceFormat, index, shards)
}

// JournalFingerprint returns the runstate fingerprint a per-shard journal
// is bound to: the workload fingerprint extended with the shard
// coordinates, so a journal written for slice 2/7 can never be resumed —
// or merged — as any other slice or shard count.
func JournalFingerprint(workloadFP string, index, shards int) string {
	return fmt.Sprintf("%s|shard=%d/%d", workloadFP, index, shards)
}
