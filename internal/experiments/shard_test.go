package experiments

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// shardSweepDir builds a shard directory for tinyConfig's workload and
// returns it with the manifest installed.
func shardSweepDir(t *testing.T, fig string, shards int) (string, shard.Manifest) {
	t.Helper()
	cfg := tinyConfig()
	fp, err := shard.WorkloadFingerprint(cfg.Apps, cfg.Procs, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m := shard.Manifest{FP: fp, Fig: fig, Shards: shards,
		Apps: cfg.Apps, Procs: cfg.Procs, Seed: cfg.Seed}
	dir := filepath.Join(t.TempDir(), "sweep")
	if err := shard.EnsureManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return dir, m
}

// runShardWorker runs one slice of a Fig6a sweep into its shard journal,
// exactly as a sharded paperbench worker would.
func runShardWorker(t *testing.T, dir string, m shard.Manifest, idx int,
	fig func(context.Context, Config) (*Table, error)) {
	t.Helper()
	j, err := runstate.Open(filepath.Join(dir, shard.JournalName(idx, m.Shards)),
		shard.JournalFingerprint(m.FP, idx, m.Shards), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := tinyConfig()
	cfg.Journal = j
	cfg.Slice = shard.Slice{Index: idx, Count: m.Shards}
	if _, err := fig(context.Background(), cfg); err != nil {
		t.Fatalf("shard %d/%d: %v", idx, m.Shards, err)
	}
}

// mergeShards renders the figure from the merged journals in merge mode,
// refusing with the rows' gaps when there are any.
func mergeShards(t *testing.T, dir string,
	fig func(context.Context, Config) (*Table, error)) (*Table, error) {
	t.Helper()
	rows, err := shard.Load(dir)
	if err != nil {
		return nil, err
	}
	cfg := tinyConfig()
	cfg.Journal = rows
	cfg.Merge = true
	tb, err := fig(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	if gaps := rows.Gaps(); !gaps.Complete() {
		return nil, gaps
	}
	return tb, nil
}

// TestShardedSweepEquivalence: for several shard counts, workers run in
// randomized interleavings (concurrent goroutines with shuffled start
// order) and the merged table is byte-identical to the single-process
// run. Shard count 1 is the degenerate base case.
func TestShardedSweepEquivalence(t *testing.T) {
	clean, err := Fig6a(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, shards := range []int{1, 2, 3, 7} {
		dir, m := shardSweepDir(t, "6a", shards)
		order := rng.Perm(shards)
		var wg sync.WaitGroup
		for _, idx := range order {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				runShardWorker(t, dir, m, idx, Fig6a)
			}(idx)
		}
		wg.Wait()
		merged, err := mergeShards(t, dir, Fig6a)
		if err != nil {
			t.Fatalf("shards=%d: merge: %v", shards, err)
		}
		if merged.String() != clean.String() {
			t.Errorf("shards=%d: merged table differs from single-process run:\n%s\nwant:\n%s",
				shards, merged, clean)
		}
	}
}

// TestShardedRuntimeStudyEquivalence: the runtime figure — whose duration
// cells are non-deterministic — merges byte-identical because rows are
// journaled as rendered cells and a merge never recomputes them. A row
// whose applications all time out is journaled empty, so its sweep merges
// too, to the same empty table as the unsharded run.
func TestShardedRuntimeStudyEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		appTimeout time.Duration
	}{
		{"complete", 0},
		{"all apps time out", time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := func(ctx context.Context, cfg Config) (*Table, error) {
				cfg.AppTimeout = tc.appTimeout
				return RuntimeStudy(ctx, cfg, 1e-11, 25)
			}
			clean, err := rt(context.Background(), tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			dir, m := shardSweepDir(t, "runtime", 2)
			for idx := 0; idx < 2; idx++ {
				runShardWorker(t, dir, m, idx, rt)
			}
			merged, err := mergeShards(t, dir, rt)
			if err != nil {
				t.Fatal(err)
			}
			// The merged table must be the exact union of what the workers
			// journaled: re-merging yields identical bytes (byte-determinism
			// of the merge itself), and it holds the unsharded run's rows.
			again, err := mergeShards(t, dir, rt)
			if err != nil {
				t.Fatal(err)
			}
			if merged.String() != again.String() {
				t.Error("merge is not deterministic")
			}
			if len(merged.Rows) != len(clean.Rows) {
				t.Fatalf("merged table has %d rows, the unsharded run %d:\n%s\nwant:\n%s",
					len(merged.Rows), len(clean.Rows), merged, clean)
			}
			for i, row := range clean.Rows {
				if got := merged.Rows[i]; got[0] != row[0] || got[1] != row[1] || strings.Contains(strings.Join(got, " "), "!") {
					t.Errorf("merged row %d = %v, want the unsharded run's %v", i, got, row[:2])
				}
			}
		})
	}
}

// TestShardedProgressTotalsSliceLocal: a sharded worker's progress totals
// count only the rows its shard owns — the satellite fix for totals that
// previously assumed the whole grid.
func TestShardedProgressTotalsSliceLocal(t *testing.T) {
	cfg := tinyConfig()
	cfg.Apps = 1
	cfg.Procs = []int{6, 9, 12} // several keys so the hash splits them across shards
	strategies := []core.Strategy{core.MIN, core.MAX, core.OPT}
	ownedBy := func(idx int) int {
		sl := shard.Slice{Index: idx, Count: 2}
		owned := 0
		for _, n := range cfg.Procs {
			for _, s := range strategies {
				if sl.Owns(cfg.rowKey(1e-11, 25, n, s)) {
					owned++
				}
			}
		}
		return owned
	}
	grid := len(cfg.Procs) * len(strategies)
	owned0, owned1 := ownedBy(0), ownedBy(1)
	if owned0+owned1 != grid {
		t.Fatalf("shards 0+1 own %d+%d rows, want exact cover of %d", owned0, owned1, grid)
	}
	if owned0 == 0 || owned0 == grid {
		t.Fatalf("degenerate split %d/%d leaves the slice-local property untested", owned0, owned1)
	}

	prog := obs.NewProgress()
	cfg.Progress = prog
	cfg.Slice = shard.Slice{Index: 0, Count: 2}
	if _, err := RuntimeStudy(context.Background(), cfg, 1e-11, 25); err != nil {
		t.Fatal(err)
	}
	for _, ph := range prog.Status().Phases {
		if ph.Name != "experiments.rows" {
			continue
		}
		if ph.Total != int64(owned0) {
			t.Errorf("experiments.rows total = %d, want slice-local %d (grid %d)", ph.Total, owned0, grid)
		}
		if ph.Current != int64(owned0) {
			t.Errorf("experiments.rows current = %d, want %d", ph.Current, owned0)
		}
		return
	}
	t.Fatal("no experiments.rows phase")
}
