package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/runstate"
)

// IncompleteError describes the gaps of a merge: the shard journals Load
// could not use, one reason per shard, and every row key the merge asked
// for and no journal held. Its Error is the strict merge's refusal, naming
// every incomplete shard so the operator knows exactly which workers to
// rerun (or which journals were damaged); its JSON is the degraded merge's
// incomplete.json gap report.
type IncompleteError struct {
	Dir     string
	Fig     string
	Shards  int
	Present int            // rows the journals served
	Reasons map[int]string // shard index → why its journal is unusable
	Missing []string       // keys no journal held, in lookup order
}

// Complete reports whether the merge has no gaps at all.
func (e *IncompleteError) Complete() bool {
	return len(e.Reasons) == 0 && len(e.Missing) == 0
}

func (e *IncompleteError) Error() string {
	owed := map[int][]string{}
	for _, k := range e.Missing {
		i := Index(k, e.Shards)
		owed[i] = append(owed[i], k)
	}
	var parts []string
	incomplete := 0
	for i := 0; i < e.Shards; i++ {
		why, bad := e.Reasons[i]
		if bad {
			parts = append(parts, fmt.Sprintf("shard %d/%d: %s", i, e.Shards, why))
		}
		if keys := owed[i]; len(keys) > 0 {
			parts = append(parts, fmt.Sprintf("shard %d of %d is incomplete: %d row(s) not journaled, first %q",
				i, e.Shards, len(keys), keys[0]))
			bad = true
		}
		if bad {
			incomplete++
		}
	}
	return fmt.Sprintf("shard: merge refused, %d of %d shard(s) in %s incomplete — %s (rerun those workers with -resume, then merge again)",
		incomplete, e.Shards, e.Dir, strings.Join(parts, "; "))
}

// MarshalJSON renders the gap report: which shard journals were unusable
// and why, and every missing row with the shard that owns it — exactly
// what to rerun to complete the table.
func (e *IncompleteError) MarshalJSON() ([]byte, error) {
	type missingRow struct {
		Key   string `json:"key"`
		Shard int    `json:"shard"`
	}
	keys := append([]string(nil), e.Missing...)
	sort.Strings(keys)
	rows := make([]missingRow, len(keys))
	for i, k := range keys {
		rows[i] = missingRow{Key: k, Shard: Index(k, e.Shards)}
	}
	reasons := map[string]string{}
	for i, why := range e.Reasons {
		reasons[strconv.Itoa(i)] = why
	}
	return json.Marshal(struct {
		Fig          string            `json:"fig"`
		Shards       int               `json:"shards"`
		Complete     bool              `json:"complete"`
		PresentRows  int               `json:"present_rows"`
		MissingRows  []missingRow      `json:"missing_rows,omitempty"`
		ShardReasons map[string]string `json:"shard_reasons,omitempty"`
	}{e.Fig, e.Shards, e.Complete(), e.Present, rows, reasons})
}

// Rows is the read-only union of a sweep's per-shard journals: the merge
// step's row store. It satisfies the experiments harness's row-store
// surface — Lookup serves journaled rows, Record refuses (a merge never
// computes, so nothing may be recorded through it) — and records what it
// could not serve, which Gaps reports. A merge renders from one goroutine,
// so Rows is not safe for concurrent use.
type Rows struct {
	dir      string
	manifest Manifest
	rows     map[string]json.RawMessage
	reasons  map[int]string
	missing  []string
}

// Manifest returns the manifest the rows were loaded under.
func (r *Rows) Manifest() Manifest { return r.manifest }

// Lookup reports whether key was journaled by any shard, unmarshalling
// its payload into v when v is non-nil. A key it cannot serve is recorded
// as missing.
func (r *Rows) Lookup(key string, v any) bool {
	data, ok := r.rows[key]
	if ok && v != nil {
		ok = json.Unmarshal(data, v) == nil
	}
	if !ok {
		r.missing = append(r.missing, key)
	}
	return ok
}

// Record always fails: the merged row store is read-only by construction.
// Reaching it means a figure tried to compute a row during a merge, which
// the experiments harness never does in merge mode; this is the backstop.
func (r *Rows) Record(key string, v any) error {
	return fmt.Errorf("shard: merge is read-only, refusing to record row %q", key)
}

// Gaps returns what the merge is missing so far: the shard journals Load
// could not use and the keys Lookup could not serve. It is never nil;
// Complete reports whether there are no gaps.
func (r *Rows) Gaps() *IncompleteError {
	return &IncompleteError{Dir: r.dir, Fig: r.manifest.Fig, Shards: r.manifest.Shards,
		Present: len(r.rows), Reasons: r.reasons, Missing: r.missing}
}

// Load opens a shard directory for merging. It fails only when the
// manifest does not verify: without it nothing binds the directory to a
// sweep. It then scans every per-shard journal (rounding a torn tail down
// to its intact prefix, exactly like a resume would) and checks the merge
// invariants: every journal present and bound to its expected fingerprint,
// and every row journaled by the one shard that Index assigns it to. A
// shard that violates any of them is recorded with its reason and
// contributes no rows at all — a journal that mixes in foreign rows is
// distrusted entirely, not salvaged up to the violation. Nothing is ever
// silently dropped or combined: Gaps names every such shard.
func Load(dir string) (*Rows, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	r := &Rows{
		dir:      dir,
		manifest: m,
		rows:     make(map[string]json.RawMessage),
		reasons:  map[int]string{},
	}
	for i := 0; i < m.Shards; i++ {
		name := JournalName(i, m.Shards)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				r.reasons[i] = fmt.Sprintf("journal %s missing (worker never ran?)", name)
			} else {
				r.reasons[i] = fmt.Sprintf("journal %s unreadable: %v", name, err)
			}
			continue
		}
		fp, ok, rows, _ := runstate.Scan(data)
		if !ok {
			r.reasons[i] = fmt.Sprintf("journal %s has no intact header", name)
			continue
		}
		if want := JournalFingerprint(m.FP, i, m.Shards); fp != want {
			r.reasons[i] = fmt.Sprintf("journal %s fingerprint %s, want %s (different workload or shard coordinates)", name, fp, want)
			continue
		}
		staged := make(map[string]json.RawMessage, len(rows))
		for _, row := range rows {
			if owner := Index(row.Key, m.Shards); owner != i {
				r.reasons[i] = fmt.Sprintf("journal %s holds row %q owned by shard %d — journals were mixed or renamed", name, row.Key, owner)
				break
			}
			if _, dup := staged[row.Key]; dup {
				r.reasons[i] = fmt.Sprintf("journal %s holds row %q twice", name, row.Key)
				break
			}
			staged[row.Key] = row.Data
		}
		if _, isBad := r.reasons[i]; isBad {
			continue // distrust the whole journal, commit none of its rows
		}
		for k, data := range staged {
			r.rows[k] = data
		}
	}
	return r, nil
}
