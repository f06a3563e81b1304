package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceEvent mirrors the Chrome trace_event entries internal/obs emits.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestTraceFlag is the acceptance check for the observability layer:
// `paperbench -fig cc -trace cc.json` must write valid Chrome trace_event
// JSON whose spans form the documented taxonomy (fig.cc → core.run → arch
// → mapping.optimize → iteration → redundancy-opt) with every child
// time-contained in its parent, and the instrumented run must print the
// same tables as an uninstrumented one.
func TestTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cc.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	var traced, plain strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc", "-trace", path, "-metrics-out", metricsPath}, &traced); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-fig", "cc"}, &plain); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	id := func(ev traceEvent, key string) (int64, bool) {
		v, ok := ev.Args[key].(float64)
		return int64(v), ok
	}
	byID := map[int64]traceEvent{}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete (X)", ev.Name, ev.Ph)
		}
		sid, ok := id(ev, "span_id")
		if !ok {
			t.Fatalf("event %q has no span_id", ev.Name)
		}
		byID[sid] = ev
		counts[ev.Name]++
	}
	// The cc figure runs three strategies over a multi-candidate
	// exploration; each taxonomy level must be present.
	for _, name := range []string{"fig.cc", "core.run", "arch", "mapping.optimize", "iteration", "redundancy-opt"} {
		if counts[name] == 0 {
			t.Errorf("no %q spans in trace (got %v)", name, counts)
		}
	}
	if counts["core.run"] != 3 {
		t.Errorf("core.run spans = %d, want 3 (MIN, MAX, OPT)", counts["core.run"])
	}

	// Span nesting: every parent link resolves, the child is time-contained
	// in the parent, and the parent's name is the taxonomy's.
	wantParent := map[string]string{
		"core.run":         "fig.cc",
		"arch":             "core.run",
		"mapping.optimize": "arch",
		"greedy-initial":   "mapping.optimize",
		"iteration":        "mapping.optimize",
	}
	const eps = 1e-3 // µs slack for float rounding
	for _, ev := range doc.TraceEvents {
		pid, ok := id(ev, "parent_id")
		if !ok {
			if ev.Name != "fig.cc" {
				t.Errorf("non-root span %q has no parent", ev.Name)
			}
			continue
		}
		parent, ok := byID[pid]
		if !ok {
			t.Fatalf("span %q has dangling parent id %d", ev.Name, pid)
		}
		if ev.TS < parent.TS-eps || ev.TS+ev.Dur > parent.TS+parent.Dur+eps {
			t.Errorf("span %q [%v, %v] not contained in parent %q [%v, %v]",
				ev.Name, ev.TS, ev.TS+ev.Dur, parent.Name, parent.TS, parent.TS+parent.Dur)
		}
		if want := wantParent[ev.Name]; want != "" && parent.Name != want {
			t.Errorf("span %q has parent %q, want %q", ev.Name, parent.Name, want)
		}
		// redundancy-opt hangs off either the iteration (tabu neighborhood)
		// or the mapping.optimize span (initial evaluation).
		if ev.Name == "redundancy-opt" && parent.Name != "iteration" && parent.Name != "mapping.optimize" && parent.Name != "worker" {
			t.Errorf("redundancy-opt has parent %q", parent.Name)
		}
	}

	// Instrumentation must not change the reported results: the tables and
	// summary lines of the traced run match the plain run (the traced run
	// additionally prints the trace report, and timing lines differ; the
	// metrics dump goes to -metrics-out, never stdout).
	keep := func(s string) string {
		var sb strings.Builder
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "evaluator:") || strings.Contains(line, "regenerated in") ||
				strings.Contains(line, "trace:") {
				continue
			}
			sb.WriteString(line)
			sb.WriteString("\n")
		}
		return strings.TrimRight(sb.String(), "\n")
	}
	if keep(traced.String()) != keep(plain.String()) {
		t.Errorf("-trace changed the tables:\n--- traced ---\n%s\n--- plain ---\n%s",
			traced.String(), plain.String())
	}
	// The metrics dump (in its own file) must report the run's headline
	// counters and the live gauges.
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.runs 3", "evalengine.evaluations", "mapping.iterations",
		"core.run count=3", "evalengine.live.cache_entries"} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, mdata)
		}
	}
	if strings.Contains(traced.String(), "metrics:") {
		t.Error("metrics dump leaked into stdout")
	}
}
