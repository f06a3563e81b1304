package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSplitInts(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"20,40", []int{20, 40}},
		{"20", []int{20}},
		{"", nil},
		{",,", nil},
		{" 20 , 40 ", []int{20, 40}},
	}
	for _, c := range cases {
		got, err := splitInts(c.in)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	// Malformed lists are refused, naming the first bad token, instead of
	// gluing digits together or dropping tokens.
	bad := []struct{ in, tok string }{
		{"20 40", `"20 40"`},
		{"20;40", `"20;40"`},
		{"-20", `"-20"`},
		{"0,40", `"0"`},
		{"20,x,0", `"x"`},
	}
	for _, c := range bad {
		got, err := splitInts(c.in)
		if err == nil {
			t.Errorf("splitInts(%q) = %v, want error", c.in, got)
			continue
		}
		if !strings.Contains(err.Error(), c.tok) {
			t.Errorf("splitInts(%q) error %q does not name %s", c.in, err, c.tok)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "9z"}, &sb); err == nil {
		t.Error("want error for unknown figure")
	}
	if err := run(context.Background(), []string{"-fig", "6a", "-procs", ","}, &sb); err == nil {
		t.Error("want error for empty process list")
	}
	if err := run(context.Background(), []string{"-fig", "6a", "-procs", "20 40"}, &sb); err == nil {
		t.Error("want error for a space-separated process list")
	}
}

func TestCCFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"MIN", "MAX", "OPT", "false", "OPT improves on MAX"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestProfileFlags: -cpuprofile and -memprofile must produce non-empty
// pprof files covering the run.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a design strategy")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "runtime", "-apps", "1", "-procs", "20",
		"-cpuprofile", cpu, "-memprofile", mem}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", path)
			continue
		}
		// pprof profiles are gzip-compressed protobufs; checking the gzip
		// magic catches a truncated or never-finalized write. The heap
		// profile is taken after runtime.GC(), so it reflects retained
		// memory rather than not-yet-collected garbage.
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s does not start with the gzip magic (got % x)", path, data[:min(2, len(data))])
		}
	}
	// The runtime figure reports the evaluation-engine counters.
	out := sb.String()
	for _, want := range []string{"cache hit", "sfp built/reused", "MIN", "MAX", "OPT"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRunWorkersFlag: -run-workers parallelizes inside each design run
// and must not change the reported tables.
func TestRunWorkersFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs design strategies twice")
	}
	var seq, par strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc"}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-fig", "cc", "-run-workers", "3"}, &par); err != nil {
		t.Fatal(err)
	}
	// Strip the engine-counter and timing lines (parallel runs report
	// speculative work and wall time differently); the tables and the
	// cost-improvement line must be identical.
	keep := func(s string) string {
		var sb strings.Builder
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "evaluator:") || strings.Contains(line, "regenerated in") {
				continue
			}
			sb.WriteString(line)
			sb.WriteString("\n")
		}
		return sb.String()
	}
	if keep(seq.String()) != keep(par.String()) {
		t.Errorf("-run-workers changed the output:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}
}

func TestTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "6c", "-apps", "1", "-procs", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig. 6c") || !strings.Contains(out, "OPT") {
		t.Errorf("unexpected output:\n%s", out)
	}
}
