package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runstate"
)

// TestIndexExactCover: for any shard count, every key is owned by exactly
// one shard with an index inside [0, shards) — the partition is a
// disjoint exact cover of the key space.
func TestIndexExactCover(t *testing.T) {
	keys := make([]string, 0, 200)
	for i := 0; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("acceptance|model=0|ser=1e-%d|hpd=%d|arc=20", i%12, i))
		keys = append(keys, fmt.Sprintf("runtime|model=0|n=%d|strategy=OPT", i))
	}
	for _, shards := range []int{1, 2, 3, 7, 16} {
		covered := make([]int, shards)
		for _, k := range keys {
			i := Index(k, shards)
			if i < 0 || i >= shards {
				t.Fatalf("Index(%q, %d) = %d out of range", k, shards, i)
			}
			if j := Index(k, shards); j != i {
				t.Fatalf("Index(%q, %d) unstable: %d then %d", k, shards, i, j)
			}
			covered[i]++
		}
		total := 0
		for _, n := range covered {
			total += n
		}
		if total != len(keys) {
			t.Fatalf("shards=%d covered %d of %d keys", shards, total, len(keys))
		}
	}
	// Degenerate widths own everything in shard 0.
	for _, shards := range []int{0, 1, -3} {
		if i := Index("any", shards); i != 0 {
			t.Errorf("Index(any, %d) = %d, want 0", shards, i)
		}
	}
}

// TestWorkloadFingerprintMatchesJournal: the sweep fingerprint is the
// same identity paperbench's -journal uses, so sharded and unsharded runs
// of one workload agree on what they are.
func TestWorkloadFingerprint(t *testing.T) {
	a, err := WorkloadFingerprint(10, []int{20, 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WorkloadFingerprint(10, []int{20, 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fingerprint unstable: %s then %s", a, b)
	}
	c, err := WorkloadFingerprint(10, []int{20, 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds fingerprint identically")
	}
	want, err := runstate.Fingerprint(struct {
		Apps  int   `json:"apps"`
		Procs []int `json:"procs"`
		Seed  int64 `json:"seed"`
	}{10, []int{20, 40}, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != want {
		t.Fatalf("WorkloadFingerprint %s does not match the -journal fingerprint %s", a, want)
	}
}

func testManifest(shards int) Manifest {
	return Manifest{FP: "abcdef0123456789", Fig: "6a", Shards: shards,
		Apps: 2, Procs: []int{20}, Seed: 3}
}

// TestManifestRoundtrip: EnsureManifest installs once, is idempotent for
// the same sweep, and refuses a different one.
func TestManifestRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	m := testManifest(3)
	if err := EnsureManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.FP != m.FP || got.Fig != m.Fig || got.Shards != m.Shards || got.Seed != m.Seed {
		t.Fatalf("roundtrip: got %+v, want %+v", got, m)
	}
	// Same sweep again: idempotent.
	if err := EnsureManifest(dir, m); err != nil {
		t.Fatalf("idempotent EnsureManifest: %v", err)
	}
	// Different shard count: refused loudly.
	other := m
	other.Shards = 4
	if err := EnsureManifest(dir, other); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("mismatched manifest accepted: %v", err)
	}
}

// TestManifestFailsClosed: corrupt, torn and version-skewed manifests are
// errors, never zero values, and EnsureManifest never overwrites them.
func TestManifestFailsClosed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	if err := EnsureManifest(dir, testManifest(2)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutant := range map[string][]byte{
		"truncated":     data[:len(data)/2],
		"bit-flipped":   append([]byte{}, append(data[:10], append([]byte{'x'}, data[11:]...)...)...),
		"empty":         nil,
		"not-json":      []byte("hello\n"),
		"wrong-version": []byte(`{"v":99,"m":{},"crc":"00000000"}`),
	} {
		if _, err := ParseManifest(mutant); err == nil {
			t.Errorf("%s manifest parsed without error", name)
		}
		if err := os.WriteFile(path, mutant, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Errorf("%s manifest read without error", name)
		}
		if err := EnsureManifest(dir, testManifest(2)); err == nil {
			t.Errorf("EnsureManifest overwrote a %s manifest", name)
		}
	}
	// Missing entirely: the typed sentinel.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("missing manifest: %v, want ErrNoManifest", err)
	}
}

// TestManifestValidate: a CRC-valid but semantically impossible manifest
// fails closed instead of producing nonsense journal names.
func TestManifestValidate(t *testing.T) {
	bad := []Manifest{
		{FP: "", Fig: "6a", Shards: 2},
		{FP: "x", Fig: "", Shards: 2},
		{FP: "x", Fig: "6a", Shards: 0},
		{FP: "x", Fig: "6a", Shards: 1 << 21},
	}
	for _, m := range bad {
		if err := EnsureManifest(t.TempDir(), m); err == nil {
			t.Errorf("manifest %+v accepted", m)
		}
	}
}

// writeShardJournal populates one shard's journal with the subset of keys
// it owns, each recorded under a small payload.
func writeShardJournal(t *testing.T, dir string, m Manifest, idx int, keys []string) {
	t.Helper()
	j, err := runstate.Open(filepath.Join(dir, JournalName(idx, m.Shards)),
		JournalFingerprint(m.FP, idx, m.Shards), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, k := range keys {
		if Index(k, m.Shards) != idx {
			continue
		}
		if err := j.Record(k, map[string]float64{"v": float64(len(k))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadMergesAllShards: a complete shard directory loads into the
// union of every journal with no gaps, and a key no journal holds is
// recorded as missing, attributed to the shard that owns it.
func TestLoadMergesAllShards(t *testing.T) {
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
	if rows.Gaps().Present != len(keys) {
		t.Fatalf("merged %d rows, want %d", rows.Gaps().Present, len(keys))
	}
	for _, k := range keys {
		var v map[string]float64
		if !rows.Lookup(k, &v) {
			t.Fatalf("row %q not merged", k)
		}
		if v["v"] != float64(len(k)) {
			t.Fatalf("row %q payload %v", k, v)
		}
	}
	if gaps := rows.Gaps(); !gaps.Complete() {
		t.Fatalf("complete directory has gaps: %v", gaps)
	}
	if rows.Lookup("absent", nil) {
		t.Error("absent row served")
	}
	gaps := rows.Gaps()
	if gaps.Complete() || len(gaps.Missing) != 1 || gaps.Missing[0] != "absent" {
		t.Fatalf("absent lookup recorded %+v, want one missing key", gaps)
	}
	want := fmt.Sprintf("shard %d of %d is incomplete: 1 row(s) not journaled", Index("absent", m.Shards), m.Shards)
	if !strings.Contains(gaps.Error(), want) {
		t.Errorf("gaps %q do not attribute the absent row: want %q", gaps, want)
	}
	if err := rows.Record("new", 1); err == nil {
		t.Error("merged rows accepted a Record — merges must be read-only")
	}
}

// TestLoadRefusesIncomplete: a missing shard journal, a foreign
// fingerprint and a row in the wrong journal each leave a gap — an
// *IncompleteError refusal naming the offending shard — and serve none of
// that shard's rows.
func TestLoadRefusesIncomplete(t *testing.T) {
	keys := []string{"row-a", "row-b", "row-c", "row-d", "row-e"}

	setup := func(t *testing.T, shards int) (string, Manifest) {
		dir := filepath.Join(t.TempDir(), "sweep")
		m := testManifest(shards)
		if err := EnsureManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		return dir, m
	}
	wantIncomplete := func(t *testing.T, dir string, shardIdx int, substr string) {
		t.Helper()
		rows, err := Load(dir)
		if err != nil {
			t.Fatalf("Load = %v, want the gap recorded on the rows", err)
		}
		ie := rows.Gaps()
		if ie.Complete() {
			t.Fatal("gapped directory reads complete")
		}
		reason, ok := ie.Reasons[shardIdx]
		if !ok {
			t.Fatalf("shard %d not in reasons: %v", shardIdx, ie)
		}
		if !strings.Contains(reason, substr) {
			t.Fatalf("shard %d reason %q does not mention %q", shardIdx, reason, substr)
		}
		if !strings.Contains(ie.Error(), "merge refused") {
			t.Fatalf("error %q does not read as a refusal", ie)
		}
	}

	t.Run("missing journal", func(t *testing.T) {
		dir, m := setup(t, 2)
		writeShardJournal(t, dir, m, 0, keys) // shard 1 never ran
		wantIncomplete(t, dir, 1, "missing")
	})

	t.Run("wrong fingerprint", func(t *testing.T) {
		dir, m := setup(t, 2)
		writeShardJournal(t, dir, m, 0, keys)
		// Shard 1's journal written under another workload's fingerprint.
		j, err := runstate.Open(filepath.Join(dir, JournalName(1, 2)),
			JournalFingerprint("feedfacefeedface", 1, 2), false)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		wantIncomplete(t, dir, 1, "fingerprint")
	})

	t.Run("row in wrong journal", func(t *testing.T) {
		dir, m := setup(t, 2)
		writeShardJournal(t, dir, m, 0, keys)
		// Shard 1's journal holds a row shard 0 owns — as if journals were
		// renamed or hand-mixed.
		j, err := runstate.Open(filepath.Join(dir, JournalName(1, 2)),
			JournalFingerprint(m.FP, 1, 2), false)
		if err != nil {
			t.Fatal(err)
		}
		var stolen string
		for _, k := range keys {
			if Index(k, 2) == 0 {
				stolen = k
				break
			}
		}
		if err := j.Record(stolen, 1); err != nil {
			t.Fatal(err)
		}
		j.Close()
		wantIncomplete(t, dir, 1, "owned by shard 0")
	})

	t.Run("torn tail rounds down", func(t *testing.T) {
		// Enough keys that both shards certainly own several rows.
		many := make([]string, 24)
		for i := range many {
			many[i] = fmt.Sprintf("row-%02d", i)
		}
		dir, m := setup(t, 2)
		for i := 0; i < 2; i++ {
			writeShardJournal(t, dir, m, i, many)
		}
		// Tear the final bytes of shard 1's journal: the damaged record
		// disappears (exactly like a resume would drop it), so the merge
		// sees one fewer row than a complete sweep.
		path := filepath.Join(dir, JournalName(1, 2))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		rows, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Gaps().Present != len(many)-1 {
			t.Fatalf("torn journal merged %d rows, want %d (one torn away)", rows.Gaps().Present, len(many)-1)
		}
		if gaps := rows.Gaps(); !gaps.Complete() {
			t.Fatalf("a torn tail is a missing row, not an unusable journal: %v", gaps)
		}
	})

	t.Run("every incomplete shard named", func(t *testing.T) {
		many := make([]string, 24)
		for i := range many {
			many[i] = fmt.Sprintf("row-%02d", i)
		}
		dir, m := setup(t, 3)                 // shard 0 never ran
		writeShardJournal(t, dir, m, 1, many) // shard 1 is complete
		writeShardJournal(t, dir, m, 2, nil)  // shard 2 journaled none of its rows
		rows, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range many {
			rows.Lookup(k, nil)
		}
		msg := rows.Gaps().Error()
		for _, want := range []string{"merge refused", "shard 0/3: journal", "shard 0 of 3 is incomplete",
			"shard 2 of 3 is incomplete", "not journaled"} {
			if !strings.Contains(msg, want) {
				t.Errorf("refusal %q does not contain %q", msg, want)
			}
		}
		if strings.Contains(msg, "shard 1") {
			t.Errorf("refusal %q names the complete shard 1", msg)
		}
	})

	t.Run("no manifest", func(t *testing.T) {
		if _, err := Load(t.TempDir()); !errors.Is(err, ErrNoManifest) {
			t.Fatalf("Load without manifest: %v", err)
		}
	})
}
