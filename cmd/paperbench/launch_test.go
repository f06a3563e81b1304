package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/retry"
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

// TestHealConvergence is the self-healing acceptance test: the sweep
// launcher drives real worker subprocesses that SIGKILL themselves every
// second journal append (injected via FTES_FAULTS, so every incarnation
// lands at most one durable row before dying), restarts them with backoff
// until every slice journal is complete, and the merged table is
// byte-identical to a clean unsharded run. No restart budget is passed:
// an incarnation that journals a row resets its slice's stalled streak.
func TestHealConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	args := []string{"-fig", "runtime", "-apps", "4", "-procs", "20,40", "-seed", "3"}
	want := normalize(runOut(t, args...))

	// Workers re-exec this test binary (workerEnv) and inherit the
	// failpoint spec; the launcher itself appends nothing, so the armed
	// kill only ever fires inside workers.
	t.Setenv(workerEnv, "1")
	t.Setenv("FTES_FAULTS", "runstate.append=kill:every=2")
	sw := captureStderr(t)

	dir := filepath.Join(t.TempDir(), "sweep")
	got := normalize(runOut(t, append(args, "-shards", "3", "-shard-dir", dir)...))
	if got != want {
		t.Errorf("launched sweep differs from clean run:\n%s\nwant:\n%s", got, want)
	}
	if log := sw.String(); !strings.Contains(log, "restarting in") {
		t.Errorf("no worker was ever restarted — the chaos never fired:\n%s", log)
	}
}

// tightenLaunch shortens the launcher's backoff and wedge window so the
// failure paths run in seconds.
func tightenLaunch(t *testing.T, wedge time.Duration) {
	oldBackoff, oldWedge := launchBackoff, wedgedAfter
	launchBackoff = retry.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	wedgedAfter = wedge
	t.Cleanup(func() { launchBackoff, wedgedAfter = oldBackoff, oldWedge })
}

// TestLaunchReplacesWedgedWorker: a worker SIGSTOPped as soon as it is up,
// so its lease is missing or never stamped again, is killed and replaced
// once neither its spawn nor a lease heartbeat falls within the wedge
// window, and the table stays byte-identical to a clean run.
func TestLaunchReplacesWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	args := []string{"-fig", "6c", "-apps", "2", "-procs", "20", "-seed", "3", "-workers", "1"}
	want := normalize(runOut(t, args...))

	tightenLaunch(t, 3*time.Second)
	t.Setenv(workerEnv, "1")
	sw := captureStderr(t)

	upRE := regexp.MustCompile(`shard 0/2 worker pid (\d+) up`)
	stopped := make(chan int, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			if m := upRE.FindStringSubmatch(sw.String()); m != nil {
				pid, _ := strconv.Atoi(m[1])
				syscall.Kill(pid, syscall.SIGSTOP)
				stopped <- pid
				return
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	dir := filepath.Join(t.TempDir(), "sweep")
	got := normalize(runOut(t, append(args, "-shards", "2", "-shard-dir", dir)...))
	select {
	case pid := <-stopped:
		if log := sw.String(); !strings.Contains(log, fmt.Sprintf("worker pid %d wedged", pid)) {
			t.Errorf("stopped worker %d was never declared wedged:\n%s", pid, log)
		}
	default:
		t.Fatalf("shard 0's worker was never seen up:\n%s", sw.String())
	}
	if got != want {
		t.Errorf("launched sweep differs from clean run:\n%s\nwant:\n%s", got, want)
	}
}

// TestLaunchGivesUp: with every journal append torn no attempt ever
// journals a row, so the launcher fails a slice after exactly
// maxStalledAttempts spawns, naming the shard.
func TestLaunchGivesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	tightenLaunch(t, wedgedAfter)
	t.Setenv(workerEnv, "1")
	t.Setenv("FTES_FAULTS", "runstate.append=torn")
	sw := captureStderr(t)

	dir := filepath.Join(t.TempDir(), "sweep")
	var sb strings.Builder
	err := run(context.Background(), append(shardArgs("6c"), "-shards", "2", "-shard-dir", dir), &sb)
	m := regexp.MustCompile(`shard (\d)/2 journaled no row in (\d+) consecutive attempts`).FindStringSubmatch(fmt.Sprint(err))
	if m == nil {
		t.Fatalf("run = %v, want a give-up error naming the shard\n%s", err, sw.String())
	}
	if m[2] != strconv.Itoa(maxStalledAttempts) {
		t.Errorf("gave up after %s stalled attempts, want %d", m[2], maxStalledAttempts)
	}
	if n := strings.Count(sw.String(), "shard "+m[1]+"/2 worker pid"); n != maxStalledAttempts {
		t.Errorf("shard %s spawned %d workers, want %d:\n%s", m[1], n, maxStalledAttempts, sw.String())
	}
	if sb.Len() != 0 {
		t.Errorf("a failed launch printed a table:\n%s", sb.String())
	}
}

// TestHealFlagValidation: the sweep launcher's conflicts and bounds fail
// fast.
func TestHealFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{append(shardArgs("6a"), "-shards", "2"), "-shard-dir"},
		{append(shardArgs("6a"), "-shards", "1", "-shard-dir", dir), "-shards 1"},
		{append(shardArgs("6a"), "-shards", "2", "-shard-dir", dir, "-merge", dir), "-merge"},
		{append(shardArgs("6a"), "-shards", "2", "-shard-dir", dir, "-journal", dir+"/j.jsonl"), "-journal"},
		{append(shardArgs("cc"), "-shards", "2", "-shard-dir", dir), "not shardable"},
	}
	for _, tc := range cases {
		var sb strings.Builder
		err := run(context.Background(), tc.args, &sb)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
