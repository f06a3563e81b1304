package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/fsatomic"
)

// ManifestVersion is the shard-manifest format version. Any other version
// fails closed — an old binary never half-reads a newer layout.
const ManifestVersion = 1

// ManifestName is the manifest's file name inside a shard directory.
const ManifestName = "shard-manifest.json"

// ErrNoManifest marks a shard directory with no manifest file at all
// (as opposed to a corrupt one, which is its own loud error).
var ErrNoManifest = errors.New("shard: no manifest")

// Manifest binds a shard directory to one sharded sweep: the workload
// fingerprint, the figure, and the partition width. Every worker writing
// into the directory and the merge step reading it verify against it, so
// journals from different workloads, figures or shard counts can never be
// silently combined.
type Manifest struct {
	// FP is the workload fingerprint (WorkloadFingerprint) every
	// per-shard journal is derived from.
	FP string `json:"fp"`
	// Fig names the figure being sharded.
	Fig string `json:"fig"`
	// Shards is the partition width; journals are named
	// JournalName(0..Shards-1, Shards).
	Shards int `json:"shards"`
	// Apps, Procs and Seed restate the workload for error messages and
	// tooling; FP is what is actually enforced.
	Apps  int   `json:"apps"`
	Procs []int `json:"procs"`
	Seed  int64 `json:"seed"`
}

// manifestFile is the on-disk framing: the manifest payload as raw JSON
// plus a CRC-32 over exactly those bytes, so equality and integrity are
// both byte-level questions.
type manifestFile struct {
	V   int             `json:"v"`
	M   json.RawMessage `json:"m"`
	CRC string          `json:"crc"`
}

func manifestCRC(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))
}

// encode renders the manifest to its canonical file bytes.
func (m Manifest) encode() ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("shard: encode manifest: %w", err)
	}
	out, err := json.Marshal(manifestFile{V: ManifestVersion, M: payload, CRC: manifestCRC(payload)})
	if err != nil {
		return nil, fmt.Errorf("shard: encode manifest: %w", err)
	}
	return append(out, '\n'), nil
}

// validate rejects manifests that cannot describe a real sweep; a
// corrupted-but-CRC-valid file (hand-edited, version-skewed) fails closed
// here instead of producing nonsense journal names.
func (m Manifest) validate() error {
	if m.FP == "" {
		return errors.New("shard: manifest has no workload fingerprint")
	}
	if m.Fig == "" {
		return errors.New("shard: manifest names no figure")
	}
	if m.Shards < 1 || m.Shards > 1<<20 {
		return fmt.Errorf("shard: manifest shard count %d out of range", m.Shards)
	}
	return nil
}

// ParseManifest decodes manifest file bytes, failing closed on anything
// torn, corrupt, version-skewed or semantically invalid. It never
// panics; FuzzShardManifest pins that.
func ParseManifest(data []byte) (Manifest, error) {
	var f manifestFile
	if err := json.Unmarshal(bytes.TrimSpace(data), &f); err != nil {
		return Manifest{}, fmt.Errorf("shard: corrupt manifest: %w", err)
	}
	if f.V != ManifestVersion {
		return Manifest{}, fmt.Errorf("shard: manifest version %d, want %d", f.V, ManifestVersion)
	}
	if f.CRC != manifestCRC(f.M) {
		return Manifest{}, errors.New("shard: manifest checksum mismatch")
	}
	var m Manifest
	if err := json.Unmarshal(f.M, &m); err != nil {
		return Manifest{}, fmt.Errorf("shard: corrupt manifest payload: %w", err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// ReadManifest loads and verifies the manifest of a shard directory. A
// missing file returns ErrNoManifest (wrapped); any corruption is a loud
// error, never a zero manifest.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Manifest{}, fmt.Errorf("%w in %s", ErrNoManifest, dir)
		}
		return Manifest{}, fmt.Errorf("shard: read manifest: %w", err)
	}
	return ParseManifest(data)
}

// EnsureManifest creates the shard directory and installs the manifest,
// or verifies that the manifest already there describes the same sweep.
// Concurrent workers of one sweep all call it: the write is atomic
// (temp file + rename) and idempotent, and a worker configured for a
// different workload, figure or shard count is refused instead of
// corrupting the directory.
func EnsureManifest(dir string, m Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	want, err := m.encode()
	if err != nil {
		return err
	}
	existing, err := ReadManifest(dir)
	switch {
	case err == nil:
		have, eerr := existing.encode()
		if eerr != nil {
			return eerr
		}
		if !bytes.Equal(have, want) {
			return fmt.Errorf("shard: directory %s already holds a different sweep (manifest fp=%s fig=%s shards=%d; this worker wants fp=%s fig=%s shards=%d)",
				dir, existing.FP, existing.Fig, existing.Shards, m.FP, m.Fig, m.Shards)
		}
		return nil
	case errors.Is(err, ErrNoManifest):
		// Fall through to the initial write.
	default:
		return err // corrupt manifest: fail closed, never overwrite evidence
	}
	if err := fsatomic.WriteFile(filepath.Join(dir, ManifestName), want); err != nil {
		return fmt.Errorf("shard: install manifest: %w", err)
	}
	return nil
}
