package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
)

// readTraceEvents parses a Chrome trace file into its event list.
func readTraceEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s is not valid trace JSON: %v", path, err)
	}
	return doc.TraceEvents
}

// asSpanID reads a span/parent id out of parsed JSON (float64 after the
// round trip).
func asSpanID(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		return int64(n), true
	}
	return 0, false
}

// TestShardedTraceMergeCLI is the CLI acceptance path of the fleet trace:
// two worker processes run a 2-shard runtime sweep, each snapshotting its
// trace into the shard directory; -merge -trace stitches them with the
// merge process into one timeline — three process lanes, globally unique
// span ids, every parent resolved, timestamps monotone per lane.
func TestShardedTraceMergeCLI(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	for idx := 0; idx < 2; idx++ {
		runOut(t, append(shardArgs("runtime"),
			"-shards", "2", "-shard", fmt.Sprint(idx), "-shard-dir", dir)...)
		snap := filepath.Join(dir, shard.TraceName(idx, 2))
		if _, err := os.Stat(snap); err != nil {
			t.Fatalf("worker %d left no trace snapshot: %v", idx, err)
		}
	}
	tracePath := filepath.Join(t.TempDir(), "merged.json")
	out := runOut(t, append(shardArgs("runtime"), "-merge", dir, "-trace", tracePath)...)
	if !strings.Contains(out, "(trace: merged 3 processes into") {
		t.Errorf("merge stdout missing trace line:\n%s", out)
	}

	events := readTraceEvents(t, tracePath)
	lanes := map[int]string{}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			lanes[ev.PID] = name
		}
	}
	if len(lanes) != 3 {
		t.Fatalf("merged trace has %d process lanes (%v), want 3 (merge + 2 workers)", len(lanes), lanes)
	}
	workerLanes := map[int]bool{}
	for pid, name := range lanes {
		if strings.HasPrefix(name, "shard ") {
			workerLanes[pid] = true
		}
	}
	if len(workerLanes) != 2 {
		t.Fatalf("worker lanes = %v, want 2 shard lanes in %v", workerLanes, lanes)
	}

	spanIDs := map[int64]bool{}
	figSpans := map[int]int{} // worker pid → fig.runtime span count
	lastTS := map[[2]int]float64{}
	for _, ev := range events {
		if ev.TS < 0 {
			t.Errorf("event %q has negative timestamp %v", ev.Name, ev.TS)
		}
		lane := [2]int{ev.PID, ev.TID}
		if ev.TS < lastTS[lane] {
			t.Errorf("lane %v timestamps not monotone: %q at %v after %v", lane, ev.Name, ev.TS, lastTS[lane])
		}
		lastTS[lane] = ev.TS
		if ev.Ph != "X" {
			continue
		}
		id, ok := asSpanID(ev.Args["span_id"])
		if !ok {
			t.Fatalf("span %q has no span_id", ev.Name)
		}
		if spanIDs[id] {
			t.Errorf("span id %d appears twice", id)
		}
		spanIDs[id] = true
		if ev.Name == "fig.runtime" && workerLanes[ev.PID] {
			figSpans[ev.PID]++
		}
	}
	for pid := range workerLanes {
		if figSpans[pid] != 1 {
			t.Errorf("worker pid %d has %d fig.runtime spans, want 1", pid, figSpans[pid])
		}
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if p, ok := asSpanID(ev.Args["parent_id"]); ok && !spanIDs[p] {
			t.Errorf("span %q parent %d not present in merged trace", ev.Name, p)
		}
	}
}
