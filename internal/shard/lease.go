package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fsatomic"
)

// DefaultLeaseInterval is how often a live worker refreshes its lease
// file; staleness thresholds should be a comfortable multiple of it.
const DefaultLeaseInterval = time.Second

// LeaseName returns the lease file name of one slice inside its shard
// directory, zero-padded like the journal names so listings sort.
func LeaseName(index, shards int) string {
	return fmt.Sprintf("lease-%04d-of-%04d.json", index, shards)
}

// LeaseInfo is the payload of a lease file: who is (or was) working the
// slice. Liveness is judged by the file's mtime — each heartbeat rewrite
// bumps it — not by the embedded wall-clock time, which exists for
// humans reading the file.
type LeaseInfo struct {
	PID       int   `json:"pid"`
	Index     int   `json:"index"`
	Shards    int   `json:"shards"`
	UpdatedMS int64 `json:"updated_ms"`
}

// Lease is a live heartbeat on one slice of a sharded sweep: a lease
// file in the shard directory rewritten (atomic temp+rename) on every
// interval tick, so a launcher can tell a working slice (fresh mtime)
// from a dead or wedged one (stale mtime). The lease is advisory —
// mutual exclusion on the journal itself is the runstate flock — so
// heartbeat write failures are tolerated, not fatal.
type Lease struct {
	path string
	info LeaseInfo

	mu     sync.Mutex
	stop   chan struct{}
	done   chan struct{}
	closed bool
}

// AcquireLease installs the slice's lease file in dir and starts the
// heartbeat goroutine refreshing it every interval (DefaultLeaseInterval
// when interval <= 0). An existing lease file — a previous attempt that
// died without cleaning up — is overwritten: the journal flock, not the
// lease, arbitrates ownership.
func AcquireLease(dir string, index, shards int, interval time.Duration) (*Lease, error) {
	if interval <= 0 {
		interval = DefaultLeaseInterval
	}
	l := &Lease{
		path: filepath.Join(dir, LeaseName(index, shards)),
		info: LeaseInfo{PID: os.Getpid(), Index: index, Shards: shards},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := l.write(); err != nil {
		return nil, fmt.Errorf("shard: acquire lease: %w", err)
	}
	go l.heartbeat(interval)
	return l, nil
}

func (l *Lease) write() error {
	info := l.info
	info.UpdatedMS = time.Now().UnixMilli()
	b, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return fsatomic.WriteFileFP(l.path, append(b, '\n'), "shard.lease")
}

func (l *Lease) heartbeat(interval time.Duration) {
	defer close(l.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			// Best effort: a failed refresh only risks a spurious stale
			// verdict, which costs one worker restart that resumes from
			// the journal.
			l.write()
		}
	}
}

// Release stops the heartbeat and removes the lease file: the slice is
// done (or cleanly handing over) and should never read as stale.
func (l *Lease) Release() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.stop)
	l.mu.Unlock()
	<-l.done
	os.Remove(l.path)
}

// ReadLease reads the slice's lease file and the mtime its last
// heartbeat landed at. A missing file returns fs.ErrNotExist (wrapped):
// no attempt is working the slice, or the last one released cleanly.
func ReadLease(dir string, index, shards int) (LeaseInfo, time.Time, error) {
	path := filepath.Join(dir, LeaseName(index, shards))
	st, err := os.Stat(path)
	if err != nil {
		return LeaseInfo{}, time.Time{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return LeaseInfo{}, time.Time{}, err
	}
	var info LeaseInfo
	if err := json.Unmarshal(data, &info); err != nil {
		// A torn lease (the writer died mid-install before fsatomic
		// existed, or the fs lied) still carries liveness in its mtime;
		// report it with zeroed info rather than failing the launcher.
		return LeaseInfo{}, st.ModTime(), nil
	}
	return info, st.ModTime(), nil
}
