package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// durRE matches Go duration strings (possibly compound, e.g. "1m30s") so
// the timing columns can be masked: wall-clock values vary run to run.
var durRE = regexp.MustCompile(`(\d+(\.\d+)?(ns|µs|us|ms|s|m|h))+`)

// normalize makes paperbench output stable across machines: duration
// tokens become DUR, and because the table column widths derive from the
// masked strings, runs of spaces and dashes are collapsed too.
func normalize(s string) string {
	s = durRE.ReplaceAllString(s, "DUR")
	s = regexp.MustCompile(` {2,}`).ReplaceAllString(s, "  ")
	s = regexp.MustCompile(`-{4,}`).ReplaceAllString(s, "----")
	var sb strings.Builder
	for _, line := range strings.Split(s, "\n") {
		sb.WriteString(strings.TrimRight(line, " "))
		sb.WriteString("\n")
	}
	return strings.TrimRight(sb.String(), "\n") + "\n"
}

// checkGolden compares the normalized output against testdata/<name>;
// `go test -run TestGolden -update` regenerates the files so formatting
// or metric changes show up as reviewable diffs.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	norm := normalize(got)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(norm), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if norm != string(want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			path, norm, want)
	}
}

// TestGoldenCC pins the cruise-controller tables: strategy feasibility,
// costs, schedule lengths and the evaluator counters are deterministic;
// only the timing figures are masked.
func TestGoldenCC(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cc.golden", sb.String())
}

// TestTimingColumnsMeasured runs the cc and runtime figures unmasked. The
// engine times its layers only under an instrument, and plain paperbench
// attaches none, so these two figures attach their own; the OPT line's
// reexec= and sched-time= and every strategy row's reexec and sched
// columns must read above zero.
func TestTimingColumnsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	positive := func(what, s string) {
		t.Helper()
		if d, err := time.ParseDuration(s); err != nil || d <= 0 {
			t.Errorf("%s = %q, want a positive duration", what, s)
		}
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc"}, &sb); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^OPT evaluator: .* reexec=(\S+) sched-time=(\S+)$`).FindStringSubmatch(sb.String())
	if m == nil {
		t.Fatalf("no OPT evaluator line in\n%s", sb.String())
	}
	positive("cc OPT reexec", m[1])
	positive("cc OPT sched-time", m[2])

	sb.Reset()
	if err := run(context.Background(), []string{"-fig", "runtime", "-apps", "2", "-procs", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 12 && (f[1] == "MIN" || f[1] == "MAX" || f[1] == "OPT") {
			positive("runtime "+f[1]+" reexec", f[10])
			positive("runtime "+f[1]+" sched", f[11])
			rows++
		}
	}
	if rows != 3 {
		t.Fatalf("found %d of the MIN, MAX and OPT rows in\n%s", rows, sb.String())
	}
}

// TestGoldenRuntime pins the runtime-study table shape and its
// deterministic counter columns on a small batch.
func TestGoldenRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the strategy-runtime study")
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "runtime", "-apps", "2", "-procs", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runtime.golden", sb.String())
}

// TestGoldenPolicies pins the E12/E13 policy-comparison table at the
// default scale: feasibility counts and mean worst-case schedule lengths
// of re-execution, checkpointing and single-process replication.
func TestGoldenPolicies(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "policies"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "policies.golden", sb.String())
}

// TestGoldenAblation pins the four ablation tables (slack model, mapping
// search, gradient guidance, bus model) on a small batch.
func TestGoldenAblation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "ablation", "-apps", "2", "-procs", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation.golden", sb.String())
}

// TestGoldenSimulation pins the E14 simulation-vs-analysis table on a
// small batch.
func TestGoldenSimulation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "simulation", "-apps", "2", "-procs", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simulation.golden", sb.String())
}
