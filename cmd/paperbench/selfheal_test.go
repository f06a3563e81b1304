package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// incompleteReport mirrors the schema of the -partial gap report.
type incompleteReport struct {
	Fig      string `json:"fig"`
	Shards   int    `json:"shards"`
	Complete bool   `json:"complete"`
	Present  int    `json:"present_rows"`
	Missing  []struct {
		Key   string `json:"key"`
		Shard int    `json:"shard"`
	} `json:"missing_rows"`
	Reasons map[string]string `json:"shard_reasons"`
}

// TestPartialMergeDegrades: with one shard's journal gone, the strict
// merge refuses while -partial emits a degraded table ("!" cells for the
// missing rows) plus incomplete.json naming every gap and its owning
// shard; on a complete sweep -partial matches the strict merge and the
// report says complete.
func TestPartialMergeDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	dir := filepath.Join(t.TempDir(), "sweep")
	const shards = 3
	for idx := 0; idx < shards; idx++ {
		runOut(t, append(shardArgs("6a"),
			"-shards", fmt.Sprint(shards), "-shard", fmt.Sprint(idx), "-shard-dir", dir)...)
	}

	// Complete sweep: -partial is byte-identical to strict, report clean.
	strict := runOut(t, append(shardArgs("6a"), "-merge", dir)...)
	partial := runOut(t, append(shardArgs("6a"), "-merge", dir, "-partial")...)
	if normalize(partial) != normalize(strict) {
		t.Errorf("-partial on a complete sweep differs from strict:\n%s\nvs\n%s", partial, strict)
	}
	rep := readReport(t, dir)
	if !rep.Complete || len(rep.Missing) != 0 || len(rep.Reasons) != 0 {
		t.Errorf("complete sweep report = %+v", rep)
	}

	// Lose shard 0 (the shard owning most rows of this tiny workload):
	// strict refuses, -partial degrades.
	if err := os.Remove(filepath.Join(dir, "shard-0000-of-0003.jsonl")); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(context.Background(), append(shardArgs("6a"), "-merge", dir), &sb); err == nil ||
		!strings.Contains(err.Error(), "merge refused") {
		t.Fatalf("strict merge of gapped sweep: %v, want refusal", err)
	}
	degraded := runOut(t, append(shardArgs("6a"), "-merge", dir, "-partial")...)
	if !strings.Contains(degraded, "!") {
		t.Errorf("degraded table has no ! cells:\n%s", degraded)
	}
	rep = readReport(t, dir)
	if rep.Complete {
		t.Error("gapped sweep reported complete")
	}
	if rep.Fig != "6a" || rep.Shards != shards {
		t.Errorf("report identity = %s/%d", rep.Fig, rep.Shards)
	}
	if len(rep.Missing) == 0 {
		t.Fatal("no missing rows named")
	}
	for _, m := range rep.Missing {
		if m.Shard != 0 {
			t.Errorf("missing row %q attributed to shard %d, want 0", m.Key, m.Shard)
		}
	}
	if why, ok := rep.Reasons["0"]; !ok || !strings.Contains(why, "missing") {
		t.Errorf("shard_reasons = %v, want shard 0 named with a missing-journal reason", rep.Reasons)
	}
	if rep.Present == 0 {
		t.Error("degraded merge served no rows at all")
	}

	// -partial without -merge is refused.
	if err := run(context.Background(), append(shardArgs("6a"), "-partial"), &sb); err == nil ||
		!strings.Contains(err.Error(), "-partial") {
		t.Errorf("-partial without -merge: %v, want flag error", err)
	}
}

func readReport(t *testing.T, dir string) incompleteReport {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "incomplete.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep incompleteReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("incomplete.json: %v\n%s", err, data)
	}
	return rep
}

// syncWriter serializes concurrent worker stderr streams into one buffer.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestHealConvergence is the self-healing acceptance test: the -heal
// supervisor drives real worker subprocesses that SIGKILL themselves
// every second journal append (injected via FTES_FAULTS, so every
// incarnation lands exactly one durable row before dying), restarts them
// with backoff until every slice journal is complete, and the merged
// table is byte-identical to a clean unsharded run.
func TestHealConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	args := []string{"-fig", "runtime", "-apps", "4", "-procs", "20,40", "-seed", "3"}
	want := normalize(runOut(t, args...))

	// Workers re-exec this test binary (workerEnv) and inherit the
	// failpoint spec; the supervisor itself appends nothing, so the armed
	// kill only ever fires inside workers.
	t.Setenv(workerEnv, "1")
	t.Setenv("FTES_FAULTS", "runstate.append=kill:every=2")

	// Capture the supervisor's narration to prove the kills really landed.
	sw := &syncWriter{}
	old := stderr
	stderr = sw
	defer func() { stderr = old }()

	dir := filepath.Join(t.TempDir(), "sweep")
	got := normalize(runOut(t, append(args,
		"-shards", "3", "-shard-dir", dir, "-heal",
		"-heal-attempts", "40", "-heal-stale", "10s")...))
	if got != want {
		t.Errorf("healed sweep differs from clean run:\n%s\nwant:\n%s", got, want)
	}
	if log := sw.String(); !strings.Contains(log, "restarting in") {
		t.Errorf("no worker was ever restarted — the chaos never fired:\n%s", log)
	}
}

// TestHealFlagValidation: -heal conflicts and bounds fail fast.
func TestHealFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{append(shardArgs("6a"), "-heal"), "-shards"},
		{append(shardArgs("6a"), "-heal", "-shards", "2"), "-shard-dir"},
		{append(shardArgs("6a"), "-heal", "-shards", "2", "-shard-dir", dir, "-shard", "0"), "-shard"},
		{append(shardArgs("6a"), "-heal", "-shards", "2", "-shard-dir", dir, "-merge", dir), "-merge"},
		{append(shardArgs("6a"), "-heal", "-shards", "2", "-shard-dir", dir, "-journal", dir+"/j.jsonl"), "-journal"},
		{append(shardArgs("6a"), "-heal", "-shards", "2", "-shard-dir", dir, "-heal-attempts", "0"), "-heal-attempts"},
		{append(shardArgs("cc"), "-heal", "-shards", "2", "-shard-dir", dir), "not shardable"},
	}
	for _, tc := range cases {
		var sb strings.Builder
		err := run(context.Background(), tc.args, &sb)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
