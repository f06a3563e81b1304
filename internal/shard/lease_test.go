package shard

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLeaseLifecycle: AcquireLease installs the lease file with the
// worker's identity, the heartbeat keeps the mtime fresh, and Release
// removes the file so the slice never reads as stale afterwards.
func TestLeaseLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, err := AcquireLease(dir, 1, 3, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	info, mtime, err := ReadLease(dir, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.PID != os.Getpid() || info.Index != 1 || info.Shards != 3 {
		t.Fatalf("lease info = %+v", info)
	}
	// The heartbeat advances the mtime without a new Acquire.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, m2, err := ReadLease(dir, 1, 3)
		if err == nil && m2.After(mtime) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never advanced the lease mtime")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stale, _ := LeaseStale(dir, 1, 3, time.Minute); stale {
		t.Error("freshly heartbeaten lease reads stale")
	}

	l.Release()
	if _, _, err := ReadLease(dir, 1, 3); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("lease after Release: %v, want not-exist", err)
	}
	if stale, _ := LeaseStale(dir, 1, 3, 0); stale {
		t.Error("released (missing) lease reads stale — no lease is not stale")
	}
	l.Release() // idempotent
}

// TestLeaseStaleAfterSilence: once the heartbeat stops (simulated by
// backdating the file's mtime, as if the worker was SIGKILLed), the lease
// reads stale and still carries the dead worker's identity.
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
	stale, info := LeaseStale(dir, 0, 2, 10*time.Second)
	if !stale {
		t.Fatal("minute-old heartbeat not stale at a 10s threshold")
	}
	if info.PID != os.Getpid() {
		t.Errorf("stale lease identity = %+v", info)
	}
	if stale, _ := LeaseStale(dir, 0, 2, 2*time.Minute); stale {
		t.Error("minute-old heartbeat stale at a 2m threshold")
	}
}

// TestLeaseOverwrite: a new attempt overwrites the dead previous
// attempt's lease file rather than failing — the journal flock, not the
// lease, owns mutual exclusion.
func TestLeaseOverwrite(t *testing.T) {
	dir := t.TempDir()
	l1, err := AcquireLease(dir, 0, 2, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := AcquireLease(dir, 0, 2, time.Hour)
	if err != nil {
		t.Fatalf("second acquire over an existing lease: %v", err)
	}
	if _, _, err := ReadLease(dir, 0, 2); err != nil {
		t.Fatal(err)
	}
	l2.Release()
	l1.Release()
}

// TestReadLeaseTorn: a lease whose payload is garbage (torn write on a
// pre-fsatomic filesystem, or fs corruption) still reports liveness via
// mtime with zeroed identity instead of erroring the watchdog out.
func TestReadLeaseTorn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LeaseName(1, 2))
	if err := os.WriteFile(path, []byte(`{"pid": 12`), 0o644); err != nil {
		t.Fatal(err)
	}
	info, mtime, err := ReadLease(dir, 1, 2)
	if err != nil {
		t.Fatalf("torn lease: %v, want tolerated", err)
	}
	if info != (LeaseInfo{}) {
		t.Errorf("torn lease info = %+v, want zeroed", info)
	}
	if mtime.IsZero() {
		t.Error("torn lease lost its mtime — staleness would be unjudgeable")
	}
	if stale, _ := LeaseStale(dir, 1, 2, time.Minute); stale {
		t.Error("fresh torn lease reads stale")
	}
}

// TestLoadPartialDegrades: LoadPartial serves rows from the intact shards
// and names each unusable one with a reason, where strict Load refuses
// the whole merge; a clean directory yields empty reasons.
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
	rows, reasons, err := LoadPartial(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reasons) != 0 || rows.Len() != len(keys) {
		t.Fatalf("clean dir: %d rows, reasons %v", rows.Len(), reasons)
	}

	// Kill shard 1's journal: strict refuses, partial degrades.
	if err := os.Remove(filepath.Join(dir, JournalName(1, m.Shards))); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("strict Load accepted a missing journal")
	}
	rows, reasons, err = LoadPartial(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if rows.Len() != len(keys)-lost {
		t.Errorf("partial rows = %d, want %d", rows.Len(), len(keys)-lost)
	}

	// A missing manifest is not degradable: nothing binds the directory.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPartial(dir); err == nil {
		t.Fatal("LoadPartial accepted a directory with no manifest")
	}
}
