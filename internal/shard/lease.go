package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// DefaultLeaseInterval is how often a live worker refreshes its lease
// file; staleness thresholds should be a comfortable multiple of it.
const DefaultLeaseInterval = time.Second

// LeaseName returns the lease file name of one slice inside its shard
// directory, zero-padded like the journal names so listings sort. The
// file is empty; its suffix is the one lease files had when they carried
// a JSON payload, so a new worker takes over an older worker's lease.
func LeaseName(index, shards int) string {
	return fmt.Sprintf("lease-%04d-of-%04d.json", index, shards)
}

// Lease is a live heartbeat on one slice of a sharded sweep: an empty
// lease file in the shard directory whose mtime is bumped on every
// interval tick, so a launcher can tell a working slice (fresh mtime)
// from a dead or wedged one (stale mtime). The lease is advisory —
// mutual exclusion on the journal itself is the runstate flock — so
// heartbeat failures are tolerated, not fatal.
type Lease struct {
	path string

	mu     sync.Mutex
	stop   chan struct{}
	done   chan struct{}
	closed bool
}

// AcquireLease creates the slice's empty lease file in dir and starts
// the heartbeat goroutine refreshing its mtime every interval
// (DefaultLeaseInterval when interval <= 0). An existing lease file — a
// previous attempt that died without cleaning up — is truncated and
// taken over: the journal flock, not the lease, arbitrates ownership.
func AcquireLease(dir string, index, shards int, interval time.Duration) (*Lease, error) {
	if interval <= 0 {
		interval = DefaultLeaseInterval
	}
	l := &Lease{
		path: filepath.Join(dir, LeaseName(index, shards)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := os.WriteFile(l.path, nil, 0o644); err != nil {
		return nil, fmt.Errorf("shard: acquire lease: %w", err)
	}
	if err := l.beat(); err != nil {
		return nil, fmt.Errorf("shard: acquire lease: %w", err)
	}
	go l.heartbeat(interval)
	return l, nil
}

// beat stamps the lease file's mtime with the current time.
func (l *Lease) beat() error {
	now := time.Now()
	return os.Chtimes(l.path, now, now)
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
			l.beat()
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

// LeaseBeat returns the mtime of the slice's last lease heartbeat. A
// missing lease file returns fs.ErrNotExist (wrapped): no attempt is
// working the slice, or the last one released cleanly.
func LeaseBeat(dir string, index, shards int) (time.Time, error) {
	st, err := os.Stat(filepath.Join(dir, LeaseName(index, shards)))
	if err != nil {
		return time.Time{}, err
	}
	return st.ModTime(), nil
}
