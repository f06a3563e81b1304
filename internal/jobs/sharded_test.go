package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runstate"
	"repro/internal/shard"
)

// runSweep computes every slice of an n-shard sweep of spec into a fresh
// shard directory and returns the directory.
func runSweep(t *testing.T, spec Spec, n int) string {
	t.Helper()
	dir := t.TempDir()
	runSlices(t, dir, spec, n, false)
	return dir
}

// runSlices computes every slice of an n-shard sweep of spec into the
// shard directory dir the way paperbench workers do — OpenSlice (resuming
// earlier rows when resume is set) plus the slice journal as the job's
// caller-owned row journal — on a scheduler of its own.
func runSlices(t *testing.T, dir string, spec Spec, n int, resume bool) {
	t.Helper()
	s := newTestScheduler(t, Options{Workers: 1})
	for i := 0; i < n; i++ {
		sl := spec
		sl.ShardIndex, sl.ShardCount = i, n
		j, err := OpenSlice(dir, sl, resume)
		if err != nil {
			t.Fatal(err)
		}
		_, err = mustSubmit(t, s, sl, SubmitOptions{RowJournal: j}).Wait(context.Background())
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("slice %d/%d: %v", i, n, err)
		}
	}
}

// TestSubmitShardedEquivalence: a sharded sweep, its slices run through
// the one slice path (OpenSlice + caller-owned RowJournal + MergeShards),
// merges into a table byte-identical to an unsharded run of the same
// spec. Running every slice again into the same directory, resuming its
// journal, merges to the same bytes.
func TestSubmitShardedEquivalence(t *testing.T) {
	clean := newTestScheduler(t, Options{Workers: 1})
	want, err := mustSubmit(t, clean, tinyFigSpec(), SubmitOptions{}).Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := runSweep(t, tinyFigSpec(), 3)
	got, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[ArtifactTable], want[ArtifactTable]) {
		t.Errorf("sharded table differs from unsharded run:\n%s\nwant:\n%s",
			got[ArtifactTable], want[ArtifactTable])
	}

	runSlices(t, dir, tinyFigSpec(), 3, true)
	got2, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2[ArtifactTable], want[ArtifactTable]) {
		t.Errorf("re-run sweep's table differs from unsharded run:\n%s\nwant:\n%s",
			got2[ArtifactTable], want[ArtifactTable])
	}
}

// TestShardSliceNeedsDurability: a slice spec with no caller-owned row
// journal fails loudly, naming paperbench -shards, on memory-only and
// durable schedulers alike — it neither runs unsharded nor gets a journal
// the scheduler opens itself. A slice journaled into state.jsonl by an
// older daemon, which the restart re-enqueues, fails the same way.
func TestShardSliceNeedsDurability(t *testing.T) {
	sl := tinyFigSpec()
	sl.ShardIndex, sl.ShardCount = 0, 2
	refused := func(t *testing.T, h *Handle) {
		t.Helper()
		art, err := h.Wait(context.Background())
		if err == nil || !strings.Contains(err.Error(), "paperbench -shards") {
			t.Errorf("slice without a row journal: %v, want a refusal naming paperbench -shards", err)
		}
		if len(art) != 0 {
			t.Errorf("refused slice produced artifacts %v", art)
		}
	}
	// onlyState: the scheduler wrote nothing but its state journal.
	onlyState := func(t *testing.T, dir string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "state.jsonl" {
				t.Errorf("refused slice left %s in the state dir", e.Name())
			}
		}
	}

	t.Run("memory", func(t *testing.T) {
		s := newTestScheduler(t, Options{Workers: 1})
		refused(t, mustSubmit(t, s, sl, SubmitOptions{}))
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		s := newTestScheduler(t, Options{Workers: 1, Dir: dir})
		refused(t, mustSubmit(t, s, sl, SubmitOptions{}))
		onlyState(t, dir)
	})
	t.Run("legacy state row", func(t *testing.T) {
		dir := t.TempDir()
		id, err := sl.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		st, err := runstate.Open(filepath.Join(dir, "state.jsonl"), stateFingerprint, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Record("job|"+id, submitRecord{Spec: sl}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		s := newTestScheduler(t, Options{Workers: 1, Dir: dir})
		if n := s.Resumed(); n != 1 {
			t.Fatalf("restart re-enqueued %d jobs, want the legacy slice", n)
		}
		h, ok := s.Get(id)
		if !ok {
			t.Fatal("legacy slice not restored")
		}
		refused(t, h)
		onlyState(t, dir)
	})
}

// TestMergeShardsRefusals: MergeShards fails closed on a sweep directory
// that does not match the spec, and merges a matching one.
func TestMergeShardsRefusals(t *testing.T) {
	dir := runSweep(t, tinyFigSpec(), 2)

	// Wrong workload: the manifest fingerprint does not match the spec.
	other := tinyFigSpec()
	other.Seed++
	if _, err := MergeShards(context.Background(), other, dir, Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "holds workload") {
		t.Errorf("merge with wrong seed: %v, want workload mismatch", err)
	}
	// Wrong figure: same workload, different fig.
	fig6c := tinyFigSpec()
	fig6c.Fig = "6c"
	if _, err := MergeShards(context.Background(), fig6c, dir, Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "figure") {
		t.Errorf("merge with wrong figure: %v, want figure mismatch", err)
	}
	// No sweep directory at all.
	if _, err := MergeShards(context.Background(), tinyFigSpec(), t.TempDir(), Instruments{}); err == nil {
		t.Error("merge of an empty directory succeeded")
	}
	// Non-shardable figure.
	ccSpec := Spec{Kind: KindFigure, Fig: "cc"}
	if _, err := MergeShards(context.Background(), ccSpec, dir, Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "not shardable") {
		t.Errorf("merge of non-shardable figure: %v", err)
	}
	// And the happy path from the same directory, standalone.
	art, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(art[ArtifactTable], []byte("Fig. 6a")) {
		t.Errorf("standalone merge artifact:\n%s", art[ArtifactTable])
	}
}

// TestMergeShardsPartialArtifact: the library-level degraded merge — with
// one journal gone, strict MergeShards refuses while Partial returns a
// table with "!" cells plus the ArtifactIncomplete gap report.
func TestMergeShardsPartialArtifact(t *testing.T) {
	dir := runSweep(t, tinyFigSpec(), 3)

	// Complete sweep: Partial is a no-op and the report says complete.
	art, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, Partial)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Complete bool `json:"complete"`
		Missing  []struct {
			Key   string `json:"key"`
			Shard int    `json:"shard"`
		} `json:"missing_rows"`
	}
	if err := json.Unmarshal(art[ArtifactIncomplete], &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || len(rep.Missing) != 0 {
		t.Errorf("complete sweep report = %+v", rep)
	}

	// Shard 0 owns rows in this workload; losing its journal degrades.
	if err := os.Remove(filepath.Join(dir, shard.JournalName(0, 3))); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "merge refused") {
		t.Errorf("strict merge of gapped sweep: %v, want refusal", err)
	}
	art, err = MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, Partial)
	if err != nil {
		t.Fatalf("partial merge of gapped sweep: %v", err)
	}
	if !bytes.Contains(art[ArtifactTable], []byte("!")) {
		t.Errorf("degraded table has no ! cells:\n%s", art[ArtifactTable])
	}
	if err := json.Unmarshal(art[ArtifactIncomplete], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Complete || len(rep.Missing) == 0 {
		t.Errorf("gapped sweep report = %+v", rep)
	}
	for _, m := range rep.Missing {
		if m.Shard != 0 {
			t.Errorf("missing row %q attributed to shard %d, want 0", m.Key, m.Shard)
		}
	}
}
