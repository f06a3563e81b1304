package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultject"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// TestSubmitShardedEquivalence: a sharded sweep on a durable scheduler
// produces a table byte-identical to an unsharded run of the same spec,
// and the coordinator's global "shard.workers" phase reaches its total.
func TestSubmitShardedEquivalence(t *testing.T) {
	clean := newTestScheduler(t, Options{Workers: 1})
	want, err := mustSubmit(t, clean, tinyFigSpec(), SubmitOptions{}).Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := newTestScheduler(t, Options{Workers: 2, Dir: t.TempDir()})
	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Shards()) != 3 {
		t.Fatalf("sweep has %d shard jobs, want 3", len(h.Shards()))
	}
	got, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[ArtifactTable], want[ArtifactTable]) {
		t.Errorf("sharded table differs from unsharded run:\n%s\nwant:\n%s",
			got[ArtifactTable], want[ArtifactTable])
	}
	for _, ph := range h.Instruments().Progress.Status().Phases {
		if ph.Name != "shard.workers" {
			continue
		}
		if ph.Total != 3 || ph.Current != 3 {
			t.Errorf("shard.workers = %d/%d, want 3/3", ph.Current, ph.Total)
		}
	}

	// A second submission of the same sweep dedups slice by slice (each
	// slice spec fingerprints identically) and merges to the same bytes.
	h2, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() != h.ID() {
		t.Errorf("sweep ids differ: %s vs %s", h2.ID(), h.ID())
	}
	got2, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2[ArtifactTable], want[ArtifactTable]) {
		t.Error("resubmitted sweep's table differs")
	}
}

// TestSubmitShardedValidation: malformed sweep submissions fail fast with
// errors naming the problem.
func TestSubmitShardedValidation(t *testing.T) {
	mem := newTestScheduler(t, Options{Workers: 1})
	if _, err := mem.SubmitSharded(tinyFigSpec(), 2, SubmitOptions{}); err == nil ||
		!strings.Contains(err.Error(), "Options.Dir") {
		t.Errorf("memory-only scheduler accepted a sharded sweep: %v", err)
	}

	s := newTestScheduler(t, Options{Workers: 1, Dir: t.TempDir()})
	if _, err := s.SubmitSharded(tinyFigSpec(), 1, SubmitOptions{}); err == nil ||
		!strings.Contains(err.Error(), "at least 2") {
		t.Errorf("shards=1 accepted: %v", err)
	}
	preset := tinyFigSpec()
	preset.ShardIndex, preset.ShardCount = 1, 2
	if _, err := s.SubmitSharded(preset, 2, SubmitOptions{}); err == nil ||
		!strings.Contains(err.Error(), "shard coordinates") {
		t.Errorf("spec with preset shard coordinates accepted: %v", err)
	}
	ccSpec := Spec{Kind: KindFigure, Fig: "cc"}
	if _, err := s.SubmitSharded(ccSpec, 2, SubmitOptions{}); err == nil ||
		!strings.Contains(err.Error(), "not shardable") {
		t.Errorf("non-shardable figure accepted: %v", err)
	}
	if _, err := s.SubmitSharded(designSpec(t), 2, SubmitOptions{}); err == nil ||
		!strings.Contains(err.Error(), "figure") {
		t.Errorf("design spec accepted for sharding: %v", err)
	}
	j, err := runstate.Open(t.TempDir()+"/rows.jsonl", "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := s.SubmitSharded(tinyFigSpec(), 2, SubmitOptions{RowJournal: j}); err == nil ||
		!strings.Contains(err.Error(), "RowJournal") {
		t.Errorf("caller-provided row journal accepted: %v", err)
	}
}

// TestShardSliceNeedsDurability: a shard-coordinate figure spec submitted
// directly to a memory-only scheduler fails with a clear error rather
// than computing a slice nobody can merge.
func TestShardSliceNeedsDurability(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	sl := tinyFigSpec()
	sl.ShardIndex, sl.ShardCount = 0, 2
	h, err := s.Submit(sl, SubmitOptions{})
	if err != nil {
		t.Fatal(err) // validation passes; the failure is at execution
	}
	if _, err := h.Wait(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "durable scheduler") {
		t.Errorf("memory-only slice run: %v, want durability error", err)
	}
}

// TestMergeShardsRefusals: MergeShards fails closed on a sweep directory
// that does not match the spec.
func TestMergeShardsRefusals(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2, Dir: t.TempDir()})
	h, err := s.SubmitSharded(tinyFigSpec(), 2, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Wrong workload: the manifest fingerprint does not match the spec.
	other := tinyFigSpec()
	other.Seed++
	if _, err := MergeShards(context.Background(), other, h.Dir(), Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "holds workload") {
		t.Errorf("merge with wrong seed: %v, want workload mismatch", err)
	}
	// Wrong figure: same workload, different fig.
	fig6c := tinyFigSpec()
	fig6c.Fig = "6c"
	if _, err := MergeShards(context.Background(), fig6c, h.Dir(), Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "figure") {
		t.Errorf("merge with wrong figure: %v, want figure mismatch", err)
	}
	// No sweep directory at all.
	if _, err := MergeShards(context.Background(), tinyFigSpec(), t.TempDir(), Instruments{}); err == nil {
		t.Error("merge of an empty directory succeeded")
	}
	// Non-shardable figure.
	ccSpec := Spec{Kind: KindFigure, Fig: "cc"}
	if _, err := MergeShards(context.Background(), ccSpec, h.Dir(), Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "not shardable") {
		t.Errorf("merge of non-shardable figure: %v", err)
	}
	// And the happy path from the same directory, standalone.
	art, err := MergeShards(context.Background(), tinyFigSpec(), h.Dir(), Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(art[ArtifactTable], []byte("Fig. 6a")) {
		t.Errorf("standalone merge artifact:\n%s", art[ArtifactTable])
	}
}

// TestShardedSliceRetried: a slice that fails transiently is re-run by
// Options.Retry — the only thing that heals a slice in-process — and the
// sweep still merges byte-identical to a clean unsharded run. The failure
// is one injected ENOSPC at the shard.manifest failpoint; with one worker
// slice 0 runs first, so it is the slice that dies.
func TestShardedSliceRetried(t *testing.T) {
	clean := newTestScheduler(t, Options{Workers: 1})
	want, err := mustSubmit(t, clean, tinyFigSpec(), SubmitOptions{}).Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := newTestScheduler(t, Options{Workers: 1, Dir: t.TempDir(), Retry: fastRetry(3)})
	if err := faultject.Arm("shard.manifest=enospc:times=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultject.Reset)
	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("sweep with a retried slice failed: %v", err)
	}
	if !bytes.Equal(got[ArtifactTable], want[ArtifactTable]) {
		t.Errorf("retried sweep's table differs from clean run:\n%s\nwant:\n%s",
			got[ArtifactTable], want[ArtifactTable])
	}
	if st := h.Shards()[0].Status(); st.State != StateDone || st.Attempts != 2 {
		t.Errorf("slice 0 = %s after %d attempts, want done after 2 (the failpoint fired once)", st.State, st.Attempts)
	}
}

// TestShardedSliceFailureFailsSweep: a slice that cannot succeed (its
// journal is bound to another sweep's fingerprint, a permanent error)
// fails the sweep with an error naming that slice and no healthy one, and
// the retry policy does not re-run it.
func TestShardedSliceFailureFailsSweep(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1, Dir: t.TempDir(), Retry: fastRetry(3)})
	dir, err := s.sweepDir(tinyFigSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := runstate.Open(filepath.Join(dir, shard.JournalName(0, 3)), "not-this-sweeps-fingerprint", true)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := h.Wait(context.Background())
	if werr == nil {
		t.Fatal("sweep with a permanently poisoned slice succeeded")
	}
	if !strings.Contains(werr.Error(), "shard 0/3") {
		t.Errorf("sweep error does not name shard 0: %v", werr)
	}
	if strings.Contains(werr.Error(), "shard 1/3") || strings.Contains(werr.Error(), "shard 2/3") {
		t.Errorf("healthy slices dragged into the sweep error: %v", werr)
	}
	if st := h.Shards()[0].Status(); st.Attempts != 1 {
		t.Errorf("poisoned slice ran %d times, want 1 (a permanent error is not retried)", st.Attempts)
	}
}

// TestMergeShardsPartialArtifact: the library-level degraded merge — with
// one journal gone, strict MergeShards refuses while Partial returns a
// table with "!" cells plus the ArtifactIncomplete gap report.
func TestMergeShardsPartialArtifact(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2, Dir: t.TempDir()})
	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Complete sweep: Partial is a no-op and the report says complete.
	art, err := MergeShards(context.Background(), tinyFigSpec(), h.Dir(), Instruments{}, Partial)
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
	if err := os.Remove(filepath.Join(h.Dir(), shard.JournalName(0, 3))); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(context.Background(), tinyFigSpec(), h.Dir(), Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "merge refused") {
		t.Errorf("strict merge of gapped sweep: %v, want refusal", err)
	}
	art, err = MergeShards(context.Background(), tinyFigSpec(), h.Dir(), Instruments{}, Partial)
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
