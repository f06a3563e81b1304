package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
