package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// shard directory dir, resuming earlier rows when resume is set.
func runSlices(t *testing.T, dir string, spec Spec, n int, resume bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		runSlice(t, dir, spec, i, n, resume)
	}
}

// runSlice computes slice i of an n-shard sweep of spec into the shard
// directory dir the way a paperbench worker does: shard.OpenSlice, then
// RunFigure into the slice journal.
func runSlice(t *testing.T, dir string, spec Spec, i, n int, resume bool) {
	t.Helper()
	j, err := shard.OpenSlice(dir, sweepManifest(t, spec, n), i, resume)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunFigure(context.Background(), spec, shard.Slice{Index: i, Count: n}, j, Instruments{})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("slice %d/%d: %v", i, n, err)
	}
}

// sweepManifest returns the manifest of an n-shard sweep of spec.
func sweepManifest(t *testing.T, spec Spec, n int) shard.Manifest {
	t.Helper()
	fp, err := shard.WorkloadFingerprint(spec.Apps, spec.Procs, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return shard.Manifest{FP: fp, Fig: spec.Fig, Shards: n, Apps: spec.Apps, Procs: spec.Procs, Seed: spec.Seed}
}

// TestSubmitShardedEquivalence: for every kind of figure row — acceptance
// points (6a and the ablations), rendered policy rows and simulation
// rows — a sharded sweep, its slices run through the one slice path
// (shard.OpenSlice + RunFigure + MergeShards), merges into a table
// byte-identical to an unsharded run of the same spec. Running
// every slice again into the same directory, resuming its journal,
// merges to the same bytes.
func TestSubmitShardedEquivalence(t *testing.T) {
	for _, fig := range []string{"6a", "ablation", "policies", "simulation"} {
		t.Run(fig, func(t *testing.T) {
			spec := tinyFigSpec()
			spec.Fig = fig
			if fig != "6a" {
				spec.Procs = []int{10}
			}
			want, err := RunFigure(context.Background(), spec, shard.Slice{}, nil, Instruments{})
			if err != nil {
				t.Fatal(err)
			}

			dir := runSweep(t, spec, 3)
			got, err := MergeShards(context.Background(), spec, dir, Instruments{}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[ArtifactTable], want[ArtifactTable]) {
				t.Errorf("sharded table differs from unsharded run:\n%s\nwant:\n%s",
					got[ArtifactTable], want[ArtifactTable])
			}

			runSlices(t, dir, spec, 3, true)
			got2, err := MergeShards(context.Background(), spec, dir, Instruments{}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2[ArtifactTable], want[ArtifactTable]) {
				t.Errorf("re-run sweep's table differs from unsharded run:\n%s\nwant:\n%s",
					got2[ArtifactTable], want[ArtifactTable])
			}
		})
	}
}

// TestShardSliceNeedsDurability: Spec has no shard coordinates, so no
// submission can describe a sweep slice; but a slice an older daemon
// journaled into state.jsonl still comes back with the restart. It
// decodes to a different spec than its id names, so it fails loudly,
// naming paperbench -shards, instead of running unsharded into a row
// journal no merge can find.
func TestShardSliceNeedsDurability(t *testing.T) {
	t.Run("legacy state row", func(t *testing.T) {
		dir := t.TempDir()
		// The spec exactly as an older daemon encoded slice 0 of 2 of
		// tinyFigSpec, and the id it fingerprinted to.
		legacy := json.RawMessage(`{"kind":"figure","fig":"6a","apps":2,"procs":[20],"seed":3,"shard_count":2}`)
		id, err := runstate.Fingerprint(legacy)
		if err != nil {
			t.Fatal(err)
		}
		if id != "c808e8d1e0d87802" {
			t.Fatalf("legacy slice spec fingerprints to %s, want the id an older daemon gave it", id)
		}
		st, err := runstate.Open(filepath.Join(dir, "state.jsonl"), stateFingerprint, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Record("job|"+id, map[string]json.RawMessage{"spec": legacy}); err != nil {
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
		art, err := h.Wait(context.Background())
		if err == nil || !strings.Contains(err.Error(), "paperbench -shards") {
			t.Errorf("legacy slice: %v, want a refusal naming paperbench -shards", err)
		}
		if len(art) != 0 {
			t.Errorf("refused slice produced artifacts %v", art)
		}
		// The scheduler wrote nothing but its state journal.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "state.jsonl" {
				t.Errorf("refused slice left %s in the state dir", e.Name())
			}
		}
	})
}

// TestMergeShardsRefusals: MergeShards fails closed on a sweep directory
// that does not match the spec, and merges a matching one.
func TestMergeShardsRefusals(t *testing.T) {
	dir := runSweep(t, tinyFigSpec(), 2)

	// Wrong workload: the manifest fingerprint does not match the spec.
	other := tinyFigSpec()
	other.Seed++
	if _, err := MergeShards(context.Background(), other, dir, Instruments{}, false); err == nil ||
		!strings.Contains(err.Error(), "holds workload") {
		t.Errorf("merge with wrong seed: %v, want workload mismatch", err)
	}
	// Wrong figure: same workload, different fig.
	fig6c := tinyFigSpec()
	fig6c.Fig = "6c"
	if _, err := MergeShards(context.Background(), fig6c, dir, Instruments{}, false); err == nil ||
		!strings.Contains(err.Error(), "figure") {
		t.Errorf("merge with wrong figure: %v, want figure mismatch", err)
	}
	// No sweep directory at all.
	if _, err := MergeShards(context.Background(), tinyFigSpec(), t.TempDir(), Instruments{}, false); err == nil {
		t.Error("merge of an empty directory succeeded")
	}
	// Non-shardable figure.
	ccSpec := Spec{Kind: KindFigure, Fig: "cc"}
	if _, err := MergeShards(context.Background(), ccSpec, dir, Instruments{}, false); err == nil ||
		!strings.Contains(err.Error(), "not shardable") {
		t.Errorf("merge of non-shardable figure: %v", err)
	}
	// And the happy path from the same directory, standalone.
	art, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(art[ArtifactTable], []byte("Fig. 6a")) {
		t.Errorf("standalone merge artifact:\n%s", art[ArtifactTable])
	}
}

// TestMergeShardsPartialArtifact: the library-level degraded merge — with
// one journal gone, strict MergeShards refuses while a partial merge
// returns a table with "!" cells plus the ArtifactIncomplete gap report.
func TestMergeShardsPartialArtifact(t *testing.T) {
	dir := runSweep(t, tinyFigSpec(), 3)

	// Complete sweep: the partial merge's report says complete.
	art, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, true)
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
	if _, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, false); err == nil ||
		!strings.Contains(err.Error(), "merge refused") {
		t.Errorf("strict merge of gapped sweep: %v, want refusal", err)
	}
	art, err = MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, true)
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

// TestMergeRefusesMissingShard: a strict merge fails when a shard never
// ran, naming it, rather than silently recomputing its rows, and returns
// no table.
func TestMergeRefusesMissingShard(t *testing.T) {
	dir := t.TempDir()
	runSlice(t, dir, tinyFigSpec(), 0, 2, false) // shard 1 never runs
	art, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, false)
	var ie *shard.IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("merge with a missing shard: %v, want *shard.IncompleteError", err)
	}
	if _, ok := ie.Reasons[1]; !ok {
		t.Fatalf("error does not name shard 1: %v", ie)
	}
	if art != nil {
		t.Errorf("refused merge returned artifacts %v", art)
	}
}

// TestMergeStrictRefusesPartialJournal: a complete set of journals with a
// missing row (a worker died before finishing and was never resumed)
// fails the strict merge with the shard attribution, not a recompute.
func TestMergeStrictRefusesPartialJournal(t *testing.T) {
	spec := tinyFigSpec()
	dir := t.TempDir()
	runSlices(t, dir, spec, 2, false)
	// Pick a shard that owns at least one of the figure's rows and replace
	// its journal by a valid header with no rows, as if the worker died
	// before its first row and was never resumed.
	empty := 0
	if shard.JournalRows(dir, 0, 2) == 0 {
		empty = 1
	}
	if shard.JournalRows(dir, empty, 2) == 0 {
		t.Fatal("no shard owns any Fig6a point")
	}
	if err := os.Remove(filepath.Join(dir, shard.JournalName(empty, 2))); err != nil {
		t.Fatal(err)
	}
	j, err := shard.OpenSlice(dir, sweepManifest(t, spec, 2), empty, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, err = MergeShards(context.Background(), spec, dir, Instruments{}, false)
	if err == nil {
		t.Fatal("merge with missing rows succeeded")
	}
	if !strings.Contains(err.Error(), "not journaled") || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("error %q does not attribute the incomplete shard", err)
	}
	if want := fmt.Sprintf("shard %d of 2 is incomplete", empty); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestIncompleteReportPinned: the degraded merge's gap report for a fixed
// gapped sweep — the tiny 6a sweep over 3 shards with shard 0's journal
// removed — is byte-identical to the golden, so its fields, their order
// and the journal reason text stay what operators and CI's jq read.
func TestIncompleteReportPinned(t *testing.T) {
	dir := runSweep(t, tinyFigSpec(), 3)
	if err := os.Remove(filepath.Join(dir, shard.JournalName(0, 3))); err != nil {
		t.Fatal(err)
	}
	art, err := MergeShards(context.Background(), tinyFigSpec(), dir, Instruments{}, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "incomplete-6a-3shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := art[ArtifactIncomplete]; !bytes.Equal(got, want) {
		t.Errorf("incomplete.json:\n%s\nwant:\n%s", got, want)
	}
}
