package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// buildWorkerTrace records a random span tree on a fresh tracer. Every
// span gets a globally unique name so the property test can check
// exactly-once presence after the merge. Returns the tracer and the
// names it recorded.
func buildWorkerTrace(rng *rand.Rand, worker int) (*Tracer, []string) {
	tr := NewTracer()
	tr.SetProcessLabel(fmt.Sprintf("shard %d", worker))
	var names []string
	n := 0
	var grow func(parent *Span, depth int)
	grow = func(parent *Span, depth int) {
		kids := 1 + rng.Intn(3)
		for k := 0; k < kids; k++ {
			name := fmt.Sprintf("w%d-s%d", worker, n)
			n++
			names = append(names, name)
			var s *Span
			if parent == nil {
				s = tr.Start(name, Int("worker", worker))
			} else {
				s = parent.Child(name)
			}
			if depth > 0 && rng.Intn(2) == 0 {
				grow(s, depth-1)
			}
			if rng.Intn(8) != 0 { // leave ~1/8 of spans unfinished
				s.End()
			}
		}
	}
	grow(nil, 2)
	return tr, names
}

// roundTrip pushes a trace through its JSON file form, the way a worker
// snapshot lands on disk before the coordinator merges it. This is what
// turns span IDs into float64s, which the merge must cope with.
func roundTrip(t *testing.T, td TraceData) TraceData {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTrace(&buf, td); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// legacySnapshot is a worker trace snapshot in the older on-disk form,
// whose ftesMeta also carried trace_id and parent_ref keys. %.0f is the
// wall-clock origin.
const legacySnapshot = `{"traceEvents":[
{"name":"legacy.root","ph":"X","ts":5,"dur":40,"pid":1,"tid":1,"args":{"span_id":1,"worker":9}},
{"name":"legacy.child","ph":"X","ts":10,"dur":20,"pid":1,"tid":1,"args":{"span_id":2,"parent_id":1}}],
"displayTimeUnit":"ms",
"ftesMeta":{"trace_id":"18f0c0de-1a2b-1","process":"shard 9/10","parent_ref":"18f0c0de-1a2b-2:1","wall_us":%.0f}}`

// TestMergeTracesProperties is the merged-trace property test: across
// random sweep shapes, plus one snapshot in the older on-disk form, the
// merged document contains every worker's spans exactly once, all parent
// links resolve, and timestamps are monotone within every (pid, tid)
// lane.
func TestMergeTracesProperties(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))

		coord := NewTracer()
		coord.SetProcessLabel("coordinator")
		sweep := coord.Start("sweep.runtime", Int("shards", 3))

		workers := 2 + rng.Intn(3)
		inputs := []TraceData{coord.TraceData()}
		wantNames := map[string]bool{"sweep.runtime": true}
		for w := 0; w < workers; w++ {
			tr, names := buildWorkerTrace(rng, w)
			for _, n := range names {
				wantNames[n] = true
			}
			inputs = append(inputs, roundTrip(t, tr.TraceData()))
		}
		sweep.End()
		inputs[0] = coord.TraceData()
		legacy, err := ReadTrace(strings.NewReader(fmt.Sprintf(legacySnapshot, inputs[0].Meta.WallUS)))
		if err != nil {
			t.Fatalf("seed %d: older snapshot does not read: %v", seed, err)
		}
		if legacy.Meta.Process != "shard 9/10" || len(legacy.Events) != 2 {
			t.Fatalf("seed %d: older snapshot read as %+v", seed, legacy)
		}
		inputs = append(inputs, legacy)
		wantNames["legacy.root"] = true
		wantNames["legacy.child"] = true

		var buf bytes.Buffer
		if err := MergeTraces(&buf, inputs...); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if bytes.Contains(buf.Bytes(), []byte("parent_ref")) || bytes.Contains(buf.Bytes(), []byte("trace_id")) {
			t.Errorf("seed %d: merged trace carries a cross-process link key", seed)
		}
		merged, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		ids := map[int64]bool{}
		seen := map[string]int{}
		procs := map[int]bool{}
		for _, ev := range merged.Events {
			if ev.Ph == "M" {
				procs[ev.PID] = true
				continue
			}
			seen[ev.Name]++
			id, ok := spanID(ev.Args["span_id"])
			if !ok {
				t.Fatalf("seed %d: event %q lacks span_id: %v", seed, ev.Name, ev.Args)
			}
			if ids[id] {
				t.Fatalf("seed %d: duplicate span_id %d after merge", seed, id)
			}
			ids[id] = true
		}

		// Every process got a named lane group.
		if len(procs) != len(inputs) {
			t.Errorf("seed %d: %d process_name events, want %d", seed, len(procs), len(inputs))
		}
		// Every worker span exactly once, nothing else.
		for name := range wantNames {
			if seen[name] != 1 {
				t.Errorf("seed %d: span %q appears %d times, want 1", seed, name, seen[name])
			}
		}
		for name := range seen {
			if !wantNames[name] {
				t.Errorf("seed %d: unexpected span %q in merge", seed, name)
			}
		}

		// All parent links resolve within the merge; only process roots
		// (the coordinator's sweep span and the worker roots, which carry
		// the "worker" attr) are parentless.
		lastTS := map[[2]int]float64{}
		for _, ev := range merged.Events {
			if ev.Ph != "X" {
				continue
			}
			if pid, ok := spanID(ev.Args["parent_id"]); ok {
				if !ids[pid] {
					t.Errorf("seed %d: span %q parent_id %d not in merge", seed, ev.Name, pid)
				}
			} else if _, root := ev.Args["worker"]; !root && ev.Name != "sweep.runtime" {
				t.Errorf("seed %d: span %q has no parent link", seed, ev.Name)
			}
			// Monotone timestamps per (pid, tid) lane.
			lane := [2]int{ev.PID, ev.TID}
			if ev.TS < lastTS[lane] {
				t.Errorf("seed %d: lane %v timestamps not monotone: %v after %v", seed, lane, ev.TS, lastTS[lane])
			}
			lastTS[lane] = ev.TS
			if ev.TS < 0 {
				t.Errorf("seed %d: negative timestamp %v on %q", seed, ev.TS, ev.Name)
			}
		}
	}
}

// TestMergeTracesClockAlignment: traces whose wall-clock origins differ
// are shifted onto the earliest origin.
func TestMergeTracesClockAlignment(t *testing.T) {
	a := TraceData{
		Meta: TraceMeta{Process: "first", WallUS: 1_000_000},
		Events: []Event{{
			Name: "a1", Ph: "X", TS: 10, Dur: 5, TID: 1,
			Args: map[string]any{"span_id": int64(1)},
		}},
	}
	b := TraceData{
		Meta: TraceMeta{Process: "second", WallUS: 1_000_250},
		Events: []Event{{
			Name: "b1", Ph: "X", TS: 10, Dur: 5, TID: 1,
			Args: map[string]any{"span_id": int64(1)},
		}},
	}
	var buf bytes.Buffer
	if err := MergeTraces(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	merged, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := map[string]float64{}
	for _, ev := range merged.Events {
		if ev.Ph == "X" {
			ts[ev.Name] = ev.TS
		}
	}
	if ts["a1"] != 10 {
		t.Errorf("earliest-origin trace shifted: a1 at %v, want 10", ts["a1"])
	}
	if ts["b1"] != 260 {
		t.Errorf("later-origin trace not shifted: b1 at %v, want 260 (10 + 250µs offset)", ts["b1"])
	}
	if merged.Meta.WallUS != 1_000_000 {
		t.Errorf("merged wall origin %v, want earliest input origin", merged.Meta.WallUS)
	}
}

// TestMergeTracesRealClockOffsets: two live tracers created at different
// wall times merge with the later tracer's spans shifted later, keeping
// cross-process ordering truthful.
func TestMergeTracesRealClockOffsets(t *testing.T) {
	first := NewTracer()
	first.Start("early").End()
	time.Sleep(3 * time.Millisecond)
	second := NewTracer()
	second.Start("late").End()

	var buf bytes.Buffer
	if err := MergeTraces(&buf, first.TraceData(), roundTrip(t, second.TraceData())); err != nil {
		t.Fatal(err)
	}
	merged, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var earlyTS, lateTS float64 = -1, -1
	for _, ev := range merged.Events {
		switch ev.Name {
		case "early":
			earlyTS = ev.TS
		case "late":
			lateTS = ev.TS
		}
	}
	if earlyTS < 0 || lateTS < 0 {
		t.Fatalf("merged trace lost spans: early=%v late=%v", earlyTS, lateTS)
	}
	if lateTS <= earlyTS {
		t.Errorf("clock normalization lost ordering: late span at %vµs, early at %vµs", lateTS, earlyTS)
	}
}
