package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// record is what one benchrun invocation appends to its -out file: the
// identity of the code and machine it measured, and every pass's result
// with the raw latencies, so compare can recompute any quantile.
type record struct {
	Schema     int       `json:"schema"`
	Time       string    `json:"time"`
	GitRev     string    `json:"git_rev"`
	Dirty      bool      `json:"dirty"`
	GoVersion  string    `json:"go_version"`
	Nproc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Results    []*result `json:"results"`
}

const recordSchema = 1

func newRecord(root string, seed int64, seconds int) *record {
	rev, dirty := gitState(root)
	return &record{
		Schema:     recordSchema,
		Time:       time.Now().UTC().Format(time.RFC3339),
		GitRev:     rev,
		Dirty:      dirty,
		GoVersion:  runtime.Version(),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
	}
}

// gitState returns the checked-out revision and whether the tree differs
// from it. Outside a git work tree the revision is "unknown" and the tree
// counts as dirty, since nothing shows it is clean.
func gitState(root string) (string, bool) {
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		// Do not look for a repository above the checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		return cmd.Output()
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", true
	}
	status, err := git("status", "--porcelain")
	return strings.TrimSpace(string(rev)), err != nil || len(bytes.TrimSpace(status)) > 0
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rec.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: record schema %d, want %d", path, n, rec.Schema, recordSchema)
		}
		out = append(out, &rec)
	}
	return out, sc.Err()
}
