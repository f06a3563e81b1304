package shard

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLeaseLifecycle: AcquireLease creates an empty lease file, the
// heartbeat keeps its mtime fresh, and Release removes the file so the
// slice never reads as stale afterwards.
func TestLeaseLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, err := AcquireLease(dir, 1, 3, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, LeaseName(1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("lease file holds %d bytes, want none", st.Size())
	}
	mtime, err := LeaseBeat(dir, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The heartbeat advances the mtime without a new Acquire.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m2, err := LeaseBeat(dir, 1, 3)
		if err == nil && m2.After(mtime) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never advanced the lease mtime")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m3, err := LeaseBeat(dir, 1, 3); err != nil || time.Since(m3) > time.Minute {
		t.Errorf("freshly heartbeaten lease mtime %v (%v), want within a minute", m3, err)
	}

	l.Release()
	if _, err := LeaseBeat(dir, 1, 3); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("lease after Release: %v, want not-exist", err)
	}
	l.Release() // idempotent
}

// TestLeaseStaleAfterSilence: once the heartbeat stops (simulated by
// backdating the file's mtime, as if the worker was SIGKILLed), LeaseBeat
// reports the old mtime.
func TestLeaseStaleAfterSilence(t *testing.T) {
	dir := t.TempDir()
	l, err := AcquireLease(dir, 0, 2, time.Hour) // heartbeat never fires
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	path := filepath.Join(dir, LeaseName(0, 2))
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	mtime, err := LeaseBeat(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if age := time.Since(mtime); age < 10*time.Second || age > 2*time.Minute {
		t.Fatalf("silenced lease age %v, want about a minute", age)
	}
}

// TestLeaseOverwrite: a new attempt takes over the dead previous
// attempt's lease file rather than failing — the journal flock, not the
// lease, owns mutual exclusion. That includes a stale lease an older
// worker left with a JSON payload: the new lease empties it and stamps
// it fresh.
func TestLeaseOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LeaseName(0, 2))
	if err := os.WriteFile(path, []byte(`{"pid":12,"index":0,"shards":2,"updated_ms":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	l1, err := AcquireLease(dir, 0, 2, time.Hour)
	if err != nil {
		t.Fatalf("acquire over an older worker's lease: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 0 || time.Since(st.ModTime()) > 10*time.Second {
		t.Fatalf("taken-over lease: %v, %v; want an empty file stamped now", st, err)
	}
	l2, err := AcquireLease(dir, 0, 2, time.Hour)
	if err != nil {
		t.Fatalf("second acquire over an existing lease: %v", err)
	}
	if _, err := LeaseBeat(dir, 0, 2); err != nil {
		t.Fatal(err)
	}
	l2.Release()
	l1.Release()
}

// TestLoadPartialDegrades: Load serves rows from the intact shards and
// records each unusable one with a reason, which the gaps name; a clean
// directory has no gaps.
func TestLoadPartialDegrades(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	m := testManifest(3)
	if err := EnsureManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	keys := []string{"row-a", "row-b", "row-c", "row-d", "row-e", "row-f", "row-g"}
	for i := 0; i < m.Shards; i++ {
		writeShardJournal(t, dir, m, i, keys)
	}
	rows, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gaps := rows.Gaps(); !gaps.Complete() || rows.Gaps().Present != len(keys) {
		t.Fatalf("clean dir: %d rows, gaps %v", rows.Gaps().Present, gaps)
	}

	// Kill shard 1's journal: the rows degrade, the gaps name shard 1.
	if err := os.Remove(filepath.Join(dir, JournalName(1, m.Shards))); err != nil {
		t.Fatal(err)
	}
	rows, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	reasons := rows.Gaps().Reasons
	if len(reasons) != 1 || reasons[1] == "" {
		t.Fatalf("reasons = %v, want shard 1 named", reasons)
	}
	lost := 0
	for _, k := range keys {
		owner := Index(k, m.Shards)
		if got := rows.Lookup(k, nil); got != (owner != 1) {
			t.Errorf("row %q (owner %d): present=%v after losing shard 1", k, owner, got)
		}
		if owner == 1 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("test workload assigned no keys to shard 1; pick different keys")
	}
	if rows.Gaps().Present != len(keys)-lost {
		t.Errorf("partial rows = %d, want %d", rows.Gaps().Present, len(keys)-lost)
	}

	// A missing manifest is not degradable: nothing binds the directory.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a directory with no manifest")
	}
}
