// Package evalcache is the disk-backed, content-addressed evaluation
// cache behind warm starts: it persists the evaluation engine's memoized
// solutions across processes, keyed by a fingerprint of the problem they
// were computed for.
//
// The cache is a directory of independent files, one per problem
// fingerprint. Each file carries a magic header and a SHA-256 digest of
// its payload; Load verifies both and treats any mismatch — torn write,
// truncation, bit rot, format drift — as a miss, never as data. Writes go
// through a temp file and an atomic rename, so concurrent writers and
// crashes can at worst lose an update, not corrupt one. The payload is
// gob (not JSON) because schedules carry NaN markers for intra-node
// messages, which JSON cannot encode.
//
// Correctness never depends on the cache: it stores results that are
// deterministic functions of the fingerprinted problem, so a stale,
// missing, or discarded file only costs recomputation.
package evalcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/fsatomic"
	"repro/internal/redundancy"
)

// magic identifies an evalcache file and its format version. Bump it to
// orphan (not misread) files written by an incompatible layout.
var magic = []byte("FTESEVC1")

// Entry is the persisted cache content for one problem fingerprint: the
// evaluation engine's memoized solutions ((levels, mapping) → solution
// and mapping → optimized solution), each mapping keyed as its processes'
// node indices in big-endian 16-bit values.
type Entry struct {
	Sols map[string]*redundancy.Solution
	Opts map[string]*redundancy.Solution
}

// Stats are a cache's lifetime I/O counters.
type Stats struct {
	// Loads and LoadHits count Load calls and how many returned an entry;
	// the difference covers both absent and rejected (corrupt) files.
	Loads    int64
	LoadHits int64
	// Saves counts successful Save calls; SavedEntries is the total number
	// of solutions written across them.
	Saves        int64
	SavedEntries int64
}

// Cache is a handle on one cache directory. It is safe for concurrent use
// and for concurrent use by multiple processes on the same directory.
type Cache struct {
	dir string

	loads    atomic.Int64
	loadHits atomic.Int64
	saves    atomic.Int64
	savedEnt atomic.Int64
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalcache: open %s: %w", dir, err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a fingerprint to its file. Fingerprints are lowercase hex
// (runstate.Fingerprint), so they are filename-safe as-is; anything else
// is rejected by validFP before reaching the filesystem.
func (c *Cache) path(fp string) string {
	return filepath.Join(c.dir, fp+".evc")
}

// validFP accepts only the hex fingerprints runstate produces, keeping
// path construction trivially traversal-free.
func validFP(fp string) bool {
	if len(fp) == 0 || len(fp) > 64 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		b := fp[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// Load reads the entry stored for fp. The bool result is false when there
// is no usable entry — absent file, wrong magic, digest mismatch, or a
// payload gob refuses — so a damaged cache degrades to a cold start.
func (c *Cache) Load(fp string) (*Entry, bool) {
	if c == nil || !validFP(fp) {
		return nil, false
	}
	c.loads.Add(1)
	raw, err := os.ReadFile(c.path(fp))
	if err != nil {
		return nil, false
	}
	e, ok := decode(raw)
	if !ok {
		return nil, false
	}
	c.loadHits.Add(1)
	return e, true
}

// Save persists the entry for fp, merging it with whatever the file
// already holds so cooperating processes accumulate rather than clobber
// each other's work (both sides hold deterministic values for their keys,
// so merge order is immaterial). The write is temp-file + rename: readers
// and concurrent savers only ever see complete files.
func (c *Cache) Save(fp string, e *Entry) error {
	if c == nil {
		return nil
	}
	if !validFP(fp) {
		return fmt.Errorf("evalcache: invalid fingerprint %q", fp)
	}
	if e == nil || len(e.Sols)+len(e.Opts) == 0 {
		return nil
	}
	merged := e
	if raw, err := os.ReadFile(c.path(fp)); err == nil {
		if prev, ok := decode(raw); ok {
			for k, v := range e.Sols {
				prev.Sols[k] = v
			}
			for k, v := range e.Opts {
				prev.Opts[k] = v
			}
			merged = prev
		}
	}
	buf, err := encode(merged)
	if err != nil {
		return err
	}
	// Shared atomic-install idiom: temp + fsync + rename + parent-dir
	// fsync, with the evalcache.save failpoint for the fault tests. A
	// torn install is not a correctness risk — decode's digest check
	// turns it into a cold start — but a short-lived cache defeats the
	// warm-up economics, so the install is made durable like a journal.
	if err := fsatomic.WriteFileFP(c.path(fp), buf, "evalcache.save"); err != nil {
		return fmt.Errorf("evalcache: save %s: %w", fp, err)
	}
	c.saves.Add(1)
	c.savedEnt.Add(int64(len(merged.Sols) + len(merged.Opts)))
	return nil
}

// Stats returns the cache's lifetime counters. Nil-safe.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Loads:        c.loads.Load(),
		LoadHits:     c.loadHits.Load(),
		Saves:        c.saves.Load(),
		SavedEntries: c.savedEnt.Load(),
	}
}

// encode renders magic + payload digest + gob(entry).
func encode(e *Entry) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		return nil, fmt.Errorf("evalcache: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	out := make([]byte, 0, len(magic)+len(sum)+payload.Len())
	out = append(out, magic...)
	out = append(out, sum[:]...)
	out = append(out, payload.Bytes()...)
	return out, nil
}

// decode is encode's inverse, rejecting anything that is not a complete,
// intact file. It never panics on hostile input: framing is length-checked
// and the digest gate means gob only ever sees bytes we wrote.
func decode(raw []byte) (*Entry, bool) {
	if len(raw) < len(magic)+sha256.Size {
		return nil, false
	}
	if !bytes.Equal(raw[:len(magic)], magic) {
		return nil, false
	}
	payload := raw[len(magic)+sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(raw[len(magic):len(magic)+sha256.Size], sum[:]) {
		return nil, false
	}
	e := &Entry{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(e); err != nil {
		return nil, false
	}
	if e.Sols == nil {
		e.Sols = make(map[string]*redundancy.Solution)
	}
	if e.Opts == nil {
		e.Opts = make(map[string]*redundancy.Solution)
	}
	return e, true
}
