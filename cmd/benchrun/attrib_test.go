package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// A hand-built trace of one design run (times in µs):
//
//	1 core.run           0–100
//	2   arch             5–95
//	3     mapping.optimize 10–90
//	4       iteration      20–50
//	5         redundancy-opt 25–45
//	6       iteration      40–70   overlaps 4 by 10: counted once
//	7       redundancy-opt 80–99   leaves its parent at 90: clipped
//	8     spread           92–94   unknown name: inherits arch's layer
//	9 unfinished         96–130  an open root: not attributed
func handTrace() []span {
	return []span{
		{1, 0, "core.run", 0, 100},
		{2, 1, "arch", 5, 95},
		{3, 2, "mapping.optimize", 10, 90},
		{4, 3, "iteration", 20, 50},
		{5, 4, "redundancy-opt", 25, 45},
		{6, 3, "iteration", 40, 70},
		{7, 3, "redundancy-opt", 80, 99},
		{8, 2, "spread", 92, 94},
		{9, 0, "unfinished", 96, 130},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(handTrace())
	want := map[int64]float64{
		1: 100 - 90,     // arch covers 5–95
		2: 90 - 80 - 2,  // optimize 10–90, spread 92–94
		3: 80 - 50 - 10, // iterations cover 20–70, redundancy-opt clipped to 80–90
		4: 30 - 20,      // its redundancy-opt 25–45
		5: 20,
		6: 30, // no children
		7: 19, // its own duration: only the parent's view is clipped
		8: 2,
		9: 34,
	}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
}

func TestLayerSelfTimes(t *testing.T) {
	got := layerSelfTimes(handTrace())
	want := map[string]float64{
		"core":       10 + 8 + 2, // core.run, arch, and the unknown child of arch
		"mapping":    20 + 10 + 30,
		"redundancy": 20 + 19,
		"other":      34,
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("layer %s: %v, want %v", l, got[l], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

// TestSpansFromTracer reads a live tracer snapshot and its JSON export the
// same way, including a span still open when the snapshot is taken.
func TestSpansFromTracer(t *testing.T) {
	tr := obs.NewTracer()
	root := tr.Start("core.run")
	arch := root.Child("arch")
	arch.Child("mapping.optimize").End()
	arch.End()
	open := root.Child("arch")
	root.End()

	live := spansFromEvents(tr.Events())
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []obs.Event }
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	decoded := spansFromEvents(doc.TraceEvents)
	for _, spans := range [][]span{live, decoded} {
		if len(spans) != 4 {
			t.Fatalf("got %d spans, want 4", len(spans))
		}
		parents := map[string]int64{}
		for _, s := range spans {
			parents[s.name] += s.parent
		}
		if parents["core.run"] != 0 || parents["arch"] != 2*root.ID() || parents["mapping.optimize"] != arch.ID() {
			t.Errorf("parent links %v", parents)
		}
		self := selfTimes(spans)
		if self[open.ID()] < 0 || self[root.ID()] < 0 {
			t.Errorf("negative self time: %v", self)
		}
	}
	open.End()
}
